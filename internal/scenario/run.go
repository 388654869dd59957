package scenario

import (
	"context"
	"encoding/json"
	"fmt"
	"strconv"
	"sync/atomic"

	"fedshare/internal/core"
	"fedshare/internal/obs"
	"fedshare/internal/stats"
	"fedshare/internal/sweep"
)

// Scenario-engine instrumentation: one span per Run (fedshare_span_seconds
// with the scenario id attached) plus per-scenario run and model-point
// counters.
var (
	runsTotal = obs.Default.CounterVec("fedshare_scenario_runs_total",
		"Scenario executions since process start.", "scenario")
	pointsTotal = obs.Default.CounterVec("fedshare_scenario_points_total",
		"Model evaluation points executed by the scenario engine.", "scenario")
)

// Result is an executed scenario: the series the experiment plots, ready
// for the table/chart renderers. Paper figures are Results too.
type Result struct {
	ID     string         `json:"id"`
	Title  string         `json:"title"`
	XLabel string         `json:"xlabel"`
	Notes  string         `json:"notes,omitempty"`
	Series []stats.Series `json:"series"`
}

// Table renders the result's series as an aligned text table.
func (r *Result) Table() string {
	return stats.Table(r.XLabel, r.Series)
}

// JSON encodes the result as indented JSON. The API result endpoint and
// fedsim -result-json both emit exactly this encoding, so the CI api-smoke
// diff gate can compare them byte for byte.
func (r *Result) JSON() ([]byte, error) {
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("scenario: encode result: %w", err)
	}
	return append(out, '\n'), nil
}

// policySymbol maps policy names to the per-facility series symbols the
// paper uses (φ̂, π̂, ρ̂, ...). Unknown policies fall back to their name.
var policySymbol = map[string]string{
	"shapley":        "phi",
	"shapley-approx": "aphi",
	"proportional":   "pi",
	"consumption":    "rho",
	"equal":          "eq",
	"nucleolus":      "nu",
	"banzhaf":        "beta",
	"shapley-users":  "uphi",
}

// symbolFor returns the series symbol for a policy name.
func symbolFor(name string) string {
	if sym, ok := policySymbol[name]; ok {
		return sym
	}
	return name
}

// ProgressFunc observes sweep execution: done points out of total. It is
// called once up front with (0, total) and then after every completed
// point, possibly concurrently from sweep workers — implementations must
// be safe for concurrent use.
type ProgressFunc func(done, total int)

// runner threads the execution context through a single scenario run: the
// cancellation context and the per-point progress callback.
type runner struct {
	ctx      context.Context
	progress ProgressFunc
	total    int
	done     atomic.Int64
}

// cancelled surfaces context cancellation between and within sweeps. The
// context's error is returned unwrapped so callers (the async engine) can
// classify cancellation with errors.Is.
func (r *runner) cancelled() error {
	return r.ctx.Err()
}

// step records one completed sweep point.
func (r *runner) step() {
	n := r.done.Add(1)
	if r.progress != nil {
		r.progress(int(n), r.total)
	}
}

// RunContext validates and executes a spec: it materializes the axis grid,
// evaluates every sweep point on the sweep worker pool (deterministic
// point ordering, so output is byte-identical to a sequential run), and
// assembles the output series. Model-construction and policy errors
// propagate with the failing point's coordinates attached.
//
// The context cancels the run between sweep points: a cancelled run
// returns ctx.Err() (unwrapped). progress, when non-nil, is invoked after
// every completed point with (done, total); total counts model-evaluation
// points (sweep points × the per-point multiplicity of the scenario kind).
func RunContext(ctx context.Context, s *Spec, progress ProgressFunc) (*Result, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	sp := obs.StartSpan("scenario.run").Attr("scenario", s.ID).Attr("kind", s.kind())
	defer sp.End()
	runsTotal.With(s.ID).Inc()
	xs, err := s.Axis.grid()
	if err != nil {
		return nil, err
	}
	policies, err := s.resolvedPolicies()
	if err != nil {
		return nil, err
	}
	r := &runner{ctx: ctx, progress: progress}
	r.total = s.totalPoints(len(xs), len(policies))
	if progress != nil {
		progress(0, r.total)
	}
	res := &Result{ID: s.ID, Title: s.Title, XLabel: s.XLabel, Notes: s.Notes}
	switch s.kind() {
	case KindUtility:
		err = s.runUtility(r, res, xs)
	case KindShares:
		err = s.runShares(r, res, xs, policies)
	case KindProfit:
		err = s.runProfit(r, res, xs, policies)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// totalPoints predicts the progress denominator for a grid of n axis
// points and the given number of resolved policies: the number of
// model-evaluation points the kind executes.
func (s *Spec) totalPoints(n, policies int) int {
	switch s.kind() {
	case KindUtility:
		return n * len(s.Demand)
	case KindProfit:
		variants := len(s.Variants)
		if variants == 0 {
			variants = 1
		}
		return n * variants * policies
	default:
		return n
	}
}

// runUtility evaluates each demand class's utility function over the grid.
func (s *Spec) runUtility(r *runner, res *Result, xs []float64) error {
	for _, d := range s.Demand {
		if err := r.cancelled(); err != nil {
			return err
		}
		u := d.experimentType().Utility()
		ser := stats.Series{Name: d.Name}
		for _, x := range xs {
			ser.Add(x, u.Eval(x))
		}
		r.done.Add(int64(len(xs) - 1))
		r.step()
		res.Series = append(res.Series, ser)
	}
	pointsTotal.With(s.ID).Add(int64(len(xs) * len(s.Demand)))
	return nil
}

// runShares evaluates every policy's share vector at each sweep point and
// emits policy-major series: all of policy 1's facilities, then policy
// 2's, ... with names <symbol><facility index>. A templated facility entry
// (Count > 1) contributes one series holding the mean share of its
// replicas, so the series layout depends only on the spec's entry list —
// a 200-facility federation declared from 4 templates plots 4 curves per
// policy.
func (s *Spec) runShares(r *runner, res *Result, xs []float64, policies []core.Policy) error {
	groups := s.facilityGroups()
	pts, err := sweep.RunErr(len(xs), func(k int) ([][]float64, error) {
		if err := r.cancelled(); err != nil {
			return nil, err
		}
		at, err := s.at(xs[k])
		if err != nil {
			return nil, err
		}
		m, err := at.Model()
		if err != nil {
			return nil, err
		}
		out := make([][]float64, len(policies))
		for pi, p := range policies {
			shares, err := p.Shares(m)
			if err != nil {
				return nil, fmt.Errorf("scenario %s: %s policy at %s=%g: %w",
					s.ID, p.Name(), s.Axis.Variable, xs[k], err)
			}
			grouped := make([]float64, len(groups))
			for gi, members := range groups {
				total := 0.0
				for _, fi := range members {
					total += shares[fi]
				}
				grouped[gi] = total / float64(len(members))
			}
			out[pi] = grouped
		}
		r.step()
		return out, nil
	})
	if err != nil {
		return err
	}
	pointsTotal.With(s.ID).Add(int64(len(xs)))
	for pi, p := range policies {
		sym := symbolFor(p.Name())
		for i := range groups {
			ser := stats.Series{Name: sym + strconv.Itoa(i+1)}
			for k, x := range xs {
				ser.Add(x, pts[k][pi][i])
			}
			res.Series = append(res.Series, ser)
		}
	}
	return nil
}

// runProfit records the tracked facility's absolute payoff per point, one
// sweep per variant × policy, variant-major (matching the paper's Fig 9
// series layout).
func (s *Spec) runProfit(r *runner, res *Result, xs []float64, policies []core.Policy) error {
	idx, err := s.trackIndex()
	if err != nil {
		return err
	}
	variants := s.Variants
	if len(variants) == 0 {
		variants = []VariantSpec{{}}
	}
	for _, v := range variants {
		base := s.clone()
		for _, set := range v.Set {
			if err := base.apply(set.Variable, set.Target, set.Value); err != nil {
				return fmt.Errorf("scenario %s: variant %s: %w", s.ID, v.Name, err)
			}
		}
		for _, p := range policies {
			if err := r.cancelled(); err != nil {
				return err
			}
			ys, err := sweep.RunErr(len(xs), func(k int) (float64, error) {
				if err := r.cancelled(); err != nil {
					return 0, err
				}
				at, err := base.at(xs[k])
				if err != nil {
					return 0, err
				}
				m, err := at.Model()
				if err != nil {
					return 0, err
				}
				profits, err := core.Profits(m, p)
				if err != nil {
					return 0, fmt.Errorf("scenario %s: %s policy at %s=%g: %w",
						s.ID, p.Name(), s.Axis.Variable, xs[k], err)
				}
				r.step()
				return profits[idx], nil
			})
			if err != nil {
				return err
			}
			pointsTotal.With(s.ID).Add(int64(len(xs)))
			name := symbolFor(p.Name()) + strconv.Itoa(idx+1)
			if v.Name != "" {
				name += "," + v.Name
			}
			ser := stats.Series{Name: name}
			for k, x := range xs {
				ser.Add(x, ys[k])
			}
			res.Series = append(res.Series, ser)
		}
	}
	return nil
}
