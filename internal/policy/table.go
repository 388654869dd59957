package policy

import (
	"fmt"
	"math"
	"sort"

	"fedshare/internal/core"
	"fedshare/internal/economics"
	"fedshare/internal/sweep"
)

// WeightTable is the paper's proposed practical artifact (Sec. 3.2.3): the
// normalized Shapley values "computed off-line and used as heuristic
// evaluators of the individual contributions of facilities, given the
// mixture of expected users". It tabulates shares over a grid of demand
// scenarios so operators can look up (or interpolate) policy weights
// without running the game online.
type WeightTable struct {
	Facilities []string
	// Rows are sorted by (Threshold, Volume).
	Rows []WeightRow
}

// WeightRow is one precomputed scenario.
type WeightRow struct {
	Threshold float64 // diversity threshold l of the scenario
	Volume    int     // demand volume K
	Shares    []float64
}

// BuildWeightTable precomputes Shapley shares for every (threshold, volume)
// combination, holding the facility configuration fixed. Thresholds and
// volumes must be non-empty; volumes must be positive.
func BuildWeightTable(facilities []core.Facility, thresholds []float64, volumes []int) (*WeightTable, error) {
	if len(thresholds) == 0 || len(volumes) == 0 {
		return nil, fmt.Errorf("policy: weight table needs thresholds and volumes")
	}
	t := &WeightTable{}
	for _, f := range facilities {
		t.Facilities = append(t.Facilities, f.Name)
	}
	type scenario struct {
		l float64
		k int
	}
	var grid []scenario
	for _, l := range thresholds {
		if l < 0 {
			return nil, fmt.Errorf("policy: negative threshold %g", l)
		}
		for _, k := range volumes {
			if k <= 0 {
				return nil, fmt.Errorf("policy: non-positive volume %d", k)
			}
			grid = append(grid, scenario{l: l, k: k})
		}
	}
	// Scenarios are independent games: evaluate them on the sweep worker
	// pool, deterministic row order preserved by index.
	rows, err := sweep.RunErr(len(grid), func(i int) (WeightRow, error) {
		s := grid[i]
		wl, err := economics.NewWorkload(economics.DemandClass{
			Type: economics.ExperimentType{
				Name: "scenario", MinLocations: s.l, MaxLocations: math.Inf(1),
				Resources: 1, HoldingTime: 1, Shape: 1,
			},
			Count: s.k,
		})
		if err != nil {
			return WeightRow{}, err
		}
		m, err := core.NewModel(append([]core.Facility(nil), facilities...), wl)
		if err != nil {
			return WeightRow{}, err
		}
		shares, err := core.ShapleyPolicy{}.Shares(m)
		if err != nil {
			return WeightRow{}, err
		}
		return WeightRow{Threshold: s.l, Volume: s.k, Shares: shares}, nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	sort.Slice(t.Rows, func(a, b int) bool {
		if t.Rows[a].Threshold != t.Rows[b].Threshold {
			return t.Rows[a].Threshold < t.Rows[b].Threshold
		}
		return t.Rows[a].Volume < t.Rows[b].Volume
	})
	return t, nil
}

// Lookup returns the precomputed shares of the grid point nearest to
// (threshold, volume) in scaled L1 distance — the operator-facing lookup
// the paper envisions instead of online Shapley computation.
func (t *WeightTable) Lookup(threshold float64, volume int) []float64 {
	if len(t.Rows) == 0 {
		return nil
	}
	best := 0
	bestD := math.Inf(1)
	// Scale by grid spans so both axes matter.
	lSpan, kSpan := 1.0, 1.0
	lMin, lMax := t.Rows[0].Threshold, t.Rows[0].Threshold
	kMin, kMax := t.Rows[0].Volume, t.Rows[0].Volume
	for _, r := range t.Rows {
		lMin = math.Min(lMin, r.Threshold)
		lMax = math.Max(lMax, r.Threshold)
		if r.Volume < kMin {
			kMin = r.Volume
		}
		if r.Volume > kMax {
			kMax = r.Volume
		}
	}
	if lMax > lMin {
		lSpan = lMax - lMin
	}
	if kMax > kMin {
		kSpan = float64(kMax - kMin)
	}
	for i, r := range t.Rows {
		d := math.Abs(r.Threshold-threshold)/lSpan + math.Abs(float64(r.Volume-volume))/kSpan
		if d < bestD {
			bestD = d
			best = i
		}
	}
	return append([]float64(nil), t.Rows[best].Shares...)
}

// Blend returns the demand-mixture-weighted shares: Σ_s weight_s ·
// shares(scenario_s), normalized. It implements "adjust the federation
// policies based on the expected mixture" (Sec. 4.3.2) for a table whose
// rows are the expected scenarios.
func (t *WeightTable) Blend(weights map[int]float64) ([]float64, error) {
	if len(t.Rows) == 0 {
		return nil, fmt.Errorf("policy: empty weight table")
	}
	n := len(t.Facilities)
	out := make([]float64, n)
	total := 0.0
	for idx, w := range weights {
		if idx < 0 || idx >= len(t.Rows) {
			return nil, fmt.Errorf("policy: row index %d out of range", idx)
		}
		if w < 0 {
			return nil, fmt.Errorf("policy: negative mixture weight %g", w)
		}
		for i := 0; i < n; i++ {
			out[i] += w * t.Rows[idx].Shares[i]
		}
		total += w
	}
	if total == 0 {
		return nil, fmt.Errorf("policy: mixture weights sum to zero")
	}
	for i := range out {
		out[i] /= total
	}
	return out, nil
}
