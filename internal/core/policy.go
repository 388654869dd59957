package core

import (
	"fmt"
	"math"
	"runtime"
	"strings"

	"fedshare/internal/coalition"
	"fedshare/internal/combin"
	"fedshare/internal/market"
)

// Policy computes normalized value shares ŝ_i for the facilities of a
// model. Shares sum to 1 whenever the federation generates value (except for
// the resource-proportional rule, which is defined even when V(N) = 0).
type Policy interface {
	// Name is a short identifier, e.g. "shapley".
	Name() string
	// Shares returns the normalized share vector.
	Shares(m *Model) ([]float64, error)
}

// ShapleyPolicy shares value by the normalized Shapley value φ̂ (eq. (5)):
// each facility receives its expected marginal contribution. Shares come
// from coalition.Values at every federation size: the lattice kernel over
// the model's dense table (Model.Table) up to 24 facilities, the exact
// collapsed class lattice or the sampler beyond.
type ShapleyPolicy struct {
	// Method selects the engine family; empty means coalition.MethodAuto.
	// coalition.MethodExact fails where no exact engine fits instead of
	// sampling — what scenario specs with "method": "exact" request.
	Method coalition.Method
}

// Name implements Policy.
func (ShapleyPolicy) Name() string { return "shapley" }

// Shares implements Policy.
func (p ShapleyPolicy) Shares(m *Model) ([]float64, error) {
	res, err := coalition.Values(m, coalition.Options{Method: p.Method})
	if err != nil {
		return nil, err
	}
	return normalizeByGrand(m, res.Phi), nil
}

// normalizeByGrand converts absolute shares to the normalized ŝ vector by
// dividing by V(N), the grand coalition's value (valid at any n). If
// V(N) == 0 it returns all zeros, the paper's convention for infeasible
// demand (no value to share).
func normalizeByGrand(m *Model, phi []float64) []float64 {
	vn := m.GrandValue()
	out := make([]float64, len(phi))
	if math.Abs(vn) < 1e-12 {
		return out
	}
	for i, p := range phi {
		out[i] = p / vn
	}
	return out
}

// ApproxShapleyPolicy is the approximation tier as a sharing policy: shares
// come from coalition.Values with sampling enabled, composing symmetry
// collapse (interchangeable facilities detected via Model.ClassStructure)
// with the stratified antithetic permutation sampler. It is the intended
// rule for federations of hundreds of facilities, and is exact whenever the
// collapsed class lattice is small enough.
type ApproxShapleyPolicy struct {
	// Samples is the permutation budget (0: the dispatcher default, or
	// adaptive-only when CITarget is set).
	Samples int
	// CITarget, when positive, requests adaptive sampling until every
	// facility's 95% CI half-width is at or below CITarget·V(N) — relative
	// precision, converted to the engines' absolute target here.
	CITarget float64
	// Seed selects the deterministic sample stream.
	Seed uint64
	// Method overrides engine selection; empty means coalition.MethodAuto
	// (exact when feasible). coalition.MethodApprox forces the sampling
	// estimator — what scenario specs with "method": "approx" request.
	Method coalition.Method
}

// Name implements Policy.
func (ApproxShapleyPolicy) Name() string { return "shapley-approx" }

// Shares implements Policy.
func (p ApproxShapleyPolicy) Shares(m *Model) ([]float64, error) {
	res, err := p.Result(m)
	if err != nil {
		return nil, err
	}
	return normalizeByGrand(m, res.Phi), nil
}

// Result exposes the full engine outcome — estimates, confidence
// half-widths, engine name — for callers that report uncertainty (fedsim,
// the approx figure) rather than bare shares.
func (p ApproxShapleyPolicy) Result(m *Model) (*coalition.ValueResult, error) {
	// Default to MethodAuto, not MethodApprox: when the model's class
	// lattice (or the full coalition lattice) is small enough for an exact
	// engine, asking for the approximation tier should return the exact
	// answer rather than a noisier estimate of it.
	method := p.Method
	if method == "" {
		method = coalition.MethodAuto
	}
	opt := coalition.Options{
		Method:  method,
		Samples: p.Samples,
		Seed:    p.Seed,
	}
	if p.CITarget < 0 {
		return nil, fmt.Errorf("core: negative CI target %g", p.CITarget)
	}
	if p.CITarget > 0 {
		vn := m.GrandValue()
		if vn <= 0 {
			return nil, fmt.Errorf("core: relative CI target needs V(N) > 0, have %g", vn)
		}
		opt.CITarget = p.CITarget * vn
	}
	return coalition.Values(m, opt)
}

// tableFor returns the model's dense coalition table for the rules that
// read every coalition. Table refuses models beyond the table bound before
// evaluating anything; the refusal points at the rule that does scale.
func tableFor(m *Model, name, instead string) (*coalition.Table, error) {
	t, err := m.Table()
	if err != nil {
		return nil, fmt.Errorf("core: policy %s: %w; use %s", name, err, instead)
	}
	return t, nil
}

// ProportionalPolicy is the availability-proportional rule π̂ (eq. (6)):
// ŝ_i = L_i·R_i·T_i / Σ_k L_k·R_k·T_k. It ignores demand entirely.
type ProportionalPolicy struct{}

// Name implements Policy.
func (ProportionalPolicy) Name() string { return "proportional" }

// Shares implements Policy.
func (ProportionalPolicy) Shares(m *Model) ([]float64, error) {
	out := make([]float64, m.N())
	total := 0.0
	for i, f := range m.Facilities {
		out[i] = float64(f.Locations) * f.EffectiveCapacity()
		total += out[i]
	}
	if total == 0 {
		return out, nil
	}
	for i := range out {
		out[i] /= total
	}
	return out, nil
}

// ConsumptionPolicy is the consumption-proportional rule ρ̂ (eq. (7)):
// shares follow the resources actually consumed at each facility's locations
// under the grand-coalition allocation.
type ConsumptionPolicy struct{}

// Name implements Policy.
func (ConsumptionPolicy) Name() string { return "consumption" }

// Shares implements Policy.
func (ConsumptionPolicy) Shares(m *Model) ([]float64, error) {
	consumed := m.ConsumptionByFacility()
	total := 0.0
	for _, c := range consumed {
		total += c
	}
	if total == 0 {
		return consumed, nil
	}
	for i := range consumed {
		consumed[i] /= total
	}
	return consumed, nil
}

// EqualPolicy divides value equally — the equity baseline the paper notes
// misaligns provision incentives.
type EqualPolicy struct{}

// Name implements Policy.
func (EqualPolicy) Name() string { return "equal" }

// Shares implements Policy.
func (EqualPolicy) Shares(m *Model) ([]float64, error) {
	out := make([]float64, m.N())
	for i := range out {
		out[i] = 1 / float64(m.N())
	}
	return out, nil
}

// NucleolusPolicy shares by the nucleolus — max-min fair over coalition
// excesses; in the core whenever the core is nonempty.
type NucleolusPolicy struct{}

// Name implements Policy.
func (NucleolusPolicy) Name() string { return "nucleolus" }

// Shares implements Policy.
func (NucleolusPolicy) Shares(m *Model) ([]float64, error) {
	g, err := tableFor(m, "nucleolus", "shapley-approx")
	if err != nil {
		return nil, err
	}
	nuc, err := coalition.Nucleolus(g)
	if err != nil {
		return nil, err
	}
	return normalizeByGrand(m, nuc), nil
}

// BanzhafPolicy shares by the normalized Banzhaf index — an alternative
// power measure included for comparison.
type BanzhafPolicy struct{}

// Name implements Policy.
func (BanzhafPolicy) Name() string { return "banzhaf" }

// Shares implements Policy.
func (BanzhafPolicy) Shares(m *Model) ([]float64, error) {
	t, err := tableFor(m, "banzhaf", "shapley-approx")
	if err != nil {
		return nil, err
	}
	beta := coalition.BatchedValues(t, runtime.GOMAXPROCS(0)).Banzhaf
	total := 0.0
	for _, b := range beta {
		total += b
	}
	if total == 0 {
		return make([]float64, m.N()), nil
	}
	for i := range beta {
		beta[i] /= total
	}
	return beta, nil
}

// AuctionPolicy is the Bellagio-style combinatorial auction of Sec. 5 as a
// sharing rule: every experiment bids its utility for its optimal package
// on the grand coalition's location pool, winners pay their bids, and the
// revenue each pool class earns by the resources consumed there is split
// among the facilities owning it. Like ρ̂ it divides value by
// consumption rather than by marginal contribution, so it diverges from
// φ̂ where diversity binds.
type AuctionPolicy struct{}

// Name implements Policy.
func (AuctionPolicy) Name() string { return "auction" }

// Shares implements Policy. With L locations in the pool, a request bids
// for its maximum when that is below L and for all L otherwise; a request
// whose threshold exceeds L cannot be served and does not bid. When no
// bid wins, every share is 0.
func (AuctionPolicy) Shares(m *Model) ([]float64, error) {
	p := m.grandPool()
	total := p.pool.TotalLocations()
	var bids []market.Bid
	for _, r := range m.reqs {
		if r.Min > total {
			continue
		}
		q := total
		if r.Max > 0 && r.Max < total {
			q = r.Max
		}
		bids = append(bids, market.NewBid(r.Label, q, r.Shape, r.Resources))
	}
	res, err := market.RunCombinatorial(p.pool, bids)
	if err != nil {
		return nil, fmt.Errorf("core: policy auction: %w", err)
	}
	return p.attribute(market.Shares(res.RevenueByClass), m.N()), nil
}

// namedPolicies is the table of rules PolicyNames and PolicyByName read,
// in presentation order. Sampler settings (budget, CI target, seed) are
// set on an ApproxShapleyPolicy constructed directly instead.
var namedPolicies = []Policy{
	ShapleyPolicy{}, ApproxShapleyPolicy{}, ProportionalPolicy{}, ConsumptionPolicy{},
	EqualPolicy{}, NucleolusPolicy{}, BanzhafPolicy{}, UserWeightedShapleyPolicy{}, AuctionPolicy{},
}

// PolicyNames lists the names PolicyByName resolves, in presentation
// order.
func PolicyNames() []string {
	names := make([]string, len(namedPolicies))
	for i, p := range namedPolicies {
		names[i] = p.Name()
	}
	return names
}

// PolicyByName resolves a deterministic sharing policy by its registered
// name; the empty string resolves to the Shapley rule (the paper's
// default).
func PolicyByName(name string) (Policy, error) {
	if name == "" {
		name = ShapleyPolicy{}.Name()
	}
	for _, p := range namedPolicies {
		if p.Name() == name {
			return p, nil
		}
	}
	return nil, fmt.Errorf("unknown policy %q (have %s)", name, strings.Join(PolicyNames(), ", "))
}

// Profits converts a policy's normalized shares into absolute payoffs
// v_i = ŝ_i · V(N).
func Profits(m *Model, p Policy) ([]float64, error) {
	shares, err := p.Shares(m)
	if err != nil {
		return nil, err
	}
	vn := m.GrandValue()
	out := make([]float64, len(shares))
	for i, s := range shares {
		out[i] = s * vn
	}
	return out, nil
}

// Report summarizes a federation instance for operators: the value of every
// coalition, structural properties, and shares under a set of policies.
type Report struct {
	GrandValue     float64
	CoalitionValue map[string]float64
	Superadditive  bool
	Convex         bool
	CoreNonempty   bool
	LeastCoreEps   float64
	Shares         map[string][]float64
}

// Analyze builds a full report. Policies failing to compute are reported
// with a nil share vector rather than failing the whole report.
func Analyze(m *Model, policies ...Policy) (*Report, error) {
	g, err := tableFor(m, "analyze (full coalition enumeration)", "shapley-approx for shares")
	if err != nil {
		return nil, err
	}
	if len(policies) == 0 {
		policies = []Policy{ShapleyPolicy{}, ProportionalPolicy{}, ConsumptionPolicy{}, EqualPolicy{}}
	}
	rep := &Report{
		GrandValue:     m.GrandValue(),
		CoalitionValue: map[string]float64{},
		Shares:         map[string][]float64{},
	}
	n := m.N()
	for mask := combin.Set(1); mask < combin.Set(1)<<uint(n); mask++ {
		rep.CoalitionValue[coalitionName(m, mask)] = g.Values[mask]
	}
	rep.Superadditive = coalition.IsSuperadditive(g)
	rep.Convex = coalition.IsConvex(g)
	lc, err := coalition.LeastCore(g)
	if err != nil {
		return nil, fmt.Errorf("core: least-core analysis failed: %w", err)
	}
	rep.LeastCoreEps = lc.Epsilon
	rep.CoreNonempty = lc.Epsilon <= 1e-7
	for _, p := range policies {
		shares, err := p.Shares(m)
		if err != nil {
			rep.Shares[p.Name()] = nil
			continue
		}
		rep.Shares[p.Name()] = shares
	}
	return rep, nil
}

func coalitionName(m *Model, s combin.Set) string {
	out := ""
	for _, i := range s.Members() {
		if out != "" {
			out += "+"
		}
		out += m.Facilities[i].Name
	}
	return out
}

// UserWeightedShapleyPolicy shares value by the weighted Shapley value with
// the facilities' affiliated-user populations U_i as weights — the
// customer-ownership contribution dimension the paper borrows from Aram et
// al. [8] for the commercial scenario. Facilities with no recorded users
// default to weight 1.
type UserWeightedShapleyPolicy struct{}

// Name implements Policy.
func (UserWeightedShapleyPolicy) Name() string { return "shapley-users" }

// Shares implements Policy.
func (UserWeightedShapleyPolicy) Shares(m *Model) ([]float64, error) {
	g, err := tableFor(m, "shapley-users", "shapley-approx")
	if err != nil {
		return nil, err
	}
	w := make([]float64, m.N())
	for i, f := range m.Facilities {
		if f.Users > 0 {
			w[i] = float64(f.Users)
		} else {
			w[i] = 1
		}
	}
	phi, err := coalition.WeightedShapley(g, w)
	if err != nil {
		return nil, err
	}
	return normalizeByGrand(m, phi), nil
}
