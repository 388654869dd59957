// Package scenario turns federation experiments into data. A Spec
// declares the full model space of the paper's evaluation — facilities,
// demand classes, sharing policies, one swept axis — plus the output to
// record, and a single generic executor (Run) evaluates any Spec on the
// sweep worker pool. Every paper figure is a Spec registered in the
// package registry; user-defined experiments load from JSON files
// (fedsim -scenario) and run through exactly the same engine.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"

	"fedshare/internal/coalition"
	"fedshare/internal/core"
	"fedshare/internal/economics"
)

// Shapley engine selection for the shapley policies of a spec (the
// "method" field), mirroring coalition.Method.
const (
	MethodAuto   = "auto"
	MethodExact  = "exact"
	MethodApprox = "approx"
)

// Scenario kinds: what a sweep point records.
const (
	// KindShares records every policy's normalized share vector per point
	// (the default).
	KindShares = "shares"
	// KindProfit records one tracked facility's absolute payoff per point,
	// once per variant × policy (the Fig 9 incentive experiment).
	KindProfit = "profit"
	// KindUtility evaluates each demand class's utility function over the
	// x grid directly, with no federation model (Fig 2).
	KindUtility = "utility"
)

// Sweep variables: the quantity the axis (or a variant Set) changes.
const (
	// VarThreshold sets the diversity threshold l of the targeted demand
	// classes.
	VarThreshold = "threshold"
	// VarShape sets the utility shape d of the targeted demand classes.
	VarShape = "shape"
	// VarCount sets the experiment count K of the targeted demand classes.
	VarCount = "count"
	// VarSigma redistributes the total experiment count K of a two-class
	// workload (the paper's σ sweep of Fig 7): the targeted class receives
	// ⌊σK+0.5⌋ experiments, the other the remainder.
	VarSigma = "sigma"
	// VarLocations sets the location count L_i of the targeted facilities.
	VarLocations = "locations"
	// VarResources sets the per-location capacity R_i of the targeted
	// facilities.
	VarResources = "resources"
	// VarMu sets the model's utility-to-profit conversion factor µ.
	VarMu = "mu"
	// VarX is the utility-kind axis: the location count x fed to u(x).
	VarX = "x"
)

// FacilitySpec declares one resource provider — or, with Count > 1, a
// template stamped into Count identical facilities (named Name-1..Name-k).
// Replicated facilities are interchangeable players, which the symmetry-
// collapsing Shapley engines exploit; large-federation scenarios declare
// hundreds of facilities in a few template lines.
type FacilitySpec struct {
	Name      string  `json:"name"`
	Locations int     `json:"locations"`
	Resources float64 `json:"resources"`
	// Availability is T_i in (0, 1]; 0 means 1 (the paper's assumption).
	Availability float64 `json:"availability,omitempty"`
	// Users is the affiliated-user population (shapley-users policy).
	Users int `json:"users,omitempty"`
	// Count replicates the facility; 0 means 1.
	Count int `json:"count,omitempty"`
}

// count returns the effective replica count.
func (f FacilitySpec) count() int {
	if f.Count <= 0 {
		return 1
	}
	return f.Count
}

// facility converts the spec entry to the core model type.
func (f FacilitySpec) facility() core.Facility {
	return core.Facility{
		Name:         f.Name,
		Locations:    f.Locations,
		Resources:    f.Resources,
		Availability: f.Availability,
		Users:        f.Users,
	}
}

// DemandSpec declares one demand class: Count experiments of one type.
// Zero values take the modelling defaults: MaxLocations 0 means unbounded,
// and Resources, HoldingTime and Shape 0 mean 1.
type DemandSpec struct {
	Name         string  `json:"name"`
	Count        int     `json:"count,omitempty"`
	MinLocations float64 `json:"min_locations,omitempty"`
	MaxLocations float64 `json:"max_locations,omitempty"`
	Resources    float64 `json:"resources,omitempty"`
	HoldingTime  float64 `json:"holding_time,omitempty"`
	Shape        float64 `json:"shape,omitempty"`
	Strict       bool    `json:"strict,omitempty"`
}

// experimentType converts the spec entry to the economics type, applying
// the zero-value defaults.
func (d DemandSpec) experimentType() economics.ExperimentType {
	t := economics.ExperimentType{
		Name: d.Name, MinLocations: d.MinLocations, MaxLocations: d.MaxLocations,
		Resources: d.Resources, HoldingTime: d.HoldingTime, Shape: d.Shape,
		Strict: d.Strict,
	}
	if t.MaxLocations == 0 {
		t.MaxLocations = math.Inf(1)
	}
	if t.Resources == 0 {
		t.Resources = 1
	}
	if t.HoldingTime == 0 {
		t.HoldingTime = 1
	}
	if t.Shape == 0 {
		t.Shape = 1
	}
	return t
}

// AxisSpec is the swept parameter: either an arithmetic grid
// [From, From+Step, ..., To] or an explicit Values list. Round, when
// positive, rounds each generated grid point to that many decimals —
// needed for fractional steps whose floating-point accumulation would
// otherwise leak into axis labels (e.g. the Fig 5 d grid).
type AxisSpec struct {
	Variable string    `json:"variable"`
	Target   string    `json:"target,omitempty"`
	From     float64   `json:"from,omitempty"`
	To       float64   `json:"to,omitempty"`
	Step     float64   `json:"step,omitempty"`
	Round    int       `json:"round,omitempty"`
	Values   []float64 `json:"values,omitempty"`
}

// maxGridPoints bounds runaway grids from user spec files.
const maxGridPoints = 100000

// grid materializes the axis points.
func (a AxisSpec) grid() ([]float64, error) {
	if len(a.Values) > 0 {
		if a.Step != 0 || a.From != 0 || a.To != 0 {
			return nil, fmt.Errorf("scenario: axis gives both values and from/to/step")
		}
		return append([]float64(nil), a.Values...), nil
	}
	if a.Step <= 0 {
		return nil, fmt.Errorf("scenario: axis step must be positive (got %g)", a.Step)
	}
	if a.To < a.From {
		return nil, fmt.Errorf("scenario: axis to %g below from %g", a.To, a.From)
	}
	if (a.To-a.From)/a.Step > maxGridPoints {
		return nil, fmt.Errorf("scenario: axis grid exceeds %d points", maxGridPoints)
	}
	var xs []float64
	for k := 0; ; k++ {
		x := a.From + float64(k)*a.Step
		if x > a.To+1e-9 {
			break
		}
		if a.Round > 0 {
			p := math.Pow(10, float64(a.Round))
			x = math.Round(x*p) / p
		}
		xs = append(xs, x)
	}
	if len(xs) == 0 {
		return nil, fmt.Errorf("scenario: axis grid is empty")
	}
	return xs, nil
}

// SetSpec is one fixed parameter override inside a variant.
type SetSpec struct {
	Variable string  `json:"variable"`
	Target   string  `json:"target,omitempty"`
	Value    float64 `json:"value"`
}

// VariantSpec is one curve family of a profit scenario: the sweep is
// repeated once per variant with the Set overrides applied first, and the
// variant name suffixes the series names (e.g. "phi1,l=800").
type VariantSpec struct {
	Name string    `json:"name"`
	Set  []SetSpec `json:"set"`
}

// Spec is a declarative federation experiment.
type Spec struct {
	ID     string `json:"id"`
	Title  string `json:"title,omitempty"`
	XLabel string `json:"xlabel,omitempty"`
	Notes  string `json:"notes,omitempty"`
	// Kind selects the recorded output; empty means KindShares.
	Kind string `json:"kind,omitempty"`
	// Mu is the utility-to-profit conversion factor (0 means 1).
	Mu         float64        `json:"mu,omitempty"`
	Facilities []FacilitySpec `json:"facilities,omitempty"`
	Demand     []DemandSpec   `json:"demand,omitempty"`
	// Policies names the sharing rules to evaluate (core.PolicyByName);
	// empty means shapley + proportional.
	Policies []string `json:"policies,omitempty"`
	Axis     AxisSpec `json:"axis"`
	// Track names the facility whose absolute profit a profit scenario
	// records; empty means the first facility.
	Track    string        `json:"track,omitempty"`
	Variants []VariantSpec `json:"variants,omitempty"`
	// Method selects the Shapley engine family for the shapley policies:
	// "auto" (empty; exact when feasible, sampled otherwise), "exact" (the
	// run fails where no exact engine fits), or "approx" (the
	// approximation tier, configured by samples/ci_target/seed below).
	Method string `json:"method,omitempty"`
	// Samples is the sampling permutation budget for the approx engines.
	Samples int `json:"samples,omitempty"`
	// CITarget requests adaptive sampling until every facility's 95% CI
	// half-width falls below CITarget·V(N) (relative; e.g. 0.01 = 1%).
	CITarget float64 `json:"ci_target,omitempty"`
	// Seed selects the deterministic sample stream of the approx engines.
	Seed uint64 `json:"seed,omitempty"`
}

// kind returns the effective scenario kind.
func (s *Spec) kind() string {
	if s.Kind == "" {
		return KindShares
	}
	return s.Kind
}

// clone copies the spec deeply enough for apply to mutate facilities and
// demand without touching the original.
func (s *Spec) clone() *Spec {
	c := *s
	c.Facilities = append([]FacilitySpec(nil), s.Facilities...)
	c.Demand = append([]DemandSpec(nil), s.Demand...)
	return &c
}

// apply sets variable to x on the spec, resolving target against demand
// classes or facilities depending on the variable (empty target means all
// applicable ones).
func (s *Spec) apply(variable, target string, x float64) error {
	switch variable {
	case VarThreshold, VarShape, VarCount:
		matched := false
		for i := range s.Demand {
			if target != "" && s.Demand[i].Name != target {
				continue
			}
			matched = true
			switch variable {
			case VarThreshold:
				s.Demand[i].MinLocations = x
			case VarShape:
				s.Demand[i].Shape = x
			case VarCount:
				if x < 0 {
					return fmt.Errorf("scenario: negative experiment count %g", x)
				}
				s.Demand[i].Count = int(math.Round(x))
			}
		}
		if !matched {
			return fmt.Errorf("scenario: %s targets unknown demand class %q", variable, target)
		}
	case VarSigma:
		if len(s.Demand) != 2 {
			return fmt.Errorf("scenario: sigma needs exactly 2 demand classes, have %d", len(s.Demand))
		}
		if x < 0 || x > 1 {
			return fmt.Errorf("scenario: sigma %g outside [0,1]", x)
		}
		bi := 1 // fraction sigma goes to the second class by default
		if target != "" {
			switch target {
			case s.Demand[0].Name:
				bi = 0
			case s.Demand[1].Name:
				bi = 1
			default:
				return fmt.Errorf("scenario: sigma targets unknown demand class %q", target)
			}
		}
		total := s.Demand[0].Count + s.Demand[1].Count
		nb := int(math.Floor(x*float64(total) + 0.5))
		s.Demand[bi].Count = nb
		s.Demand[1-bi].Count = total - nb
	case VarLocations, VarResources:
		matched := false
		for i := range s.Facilities {
			if target != "" && s.Facilities[i].Name != target {
				continue
			}
			matched = true
			if variable == VarLocations {
				if x < 0 {
					return fmt.Errorf("scenario: negative location count %g", x)
				}
				s.Facilities[i].Locations = int(math.Round(x))
			} else {
				s.Facilities[i].Resources = x
			}
		}
		if !matched {
			return fmt.Errorf("scenario: %s targets unknown facility %q", variable, target)
		}
	case VarMu:
		s.Mu = x
	default:
		return fmt.Errorf("scenario: unknown sweep variable %q", variable)
	}
	return nil
}

// at returns a copy of the spec with the axis applied at x.
func (s *Spec) at(x float64) (*Spec, error) {
	c := s.clone()
	if err := c.apply(s.Axis.Variable, s.Axis.Target, x); err != nil {
		return nil, err
	}
	return c, nil
}

// expandedFacilities stamps the facility templates into the concrete
// facility list (Count replicas per entry, named Name-1..Name-k when
// replicated).
func (s *Spec) expandedFacilities() []core.Facility {
	var out []core.Facility
	for _, f := range s.Facilities {
		c := f.count()
		for r := 0; r < c; r++ {
			fac := f.facility()
			if c > 1 {
				fac.Name = fmt.Sprintf("%s-%d", f.Name, r+1)
			}
			out = append(out, fac)
		}
	}
	return out
}

// facilityGroups maps each spec entry to its replica indices in the
// expanded facility list.
func (s *Spec) facilityGroups() [][]int {
	groups := make([][]int, len(s.Facilities))
	idx := 0
	for i, f := range s.Facilities {
		for r := 0; r < f.count(); r++ {
			groups[i] = append(groups[i], idx)
			idx++
		}
	}
	return groups
}

// Model builds the federation game instance the spec declares.
func (s *Spec) Model() (*core.Model, error) {
	facilities := s.expandedFacilities()
	classes := make([]economics.DemandClass, len(s.Demand))
	for i, d := range s.Demand {
		classes[i] = economics.DemandClass{Type: d.experimentType(), Count: d.Count}
	}
	wl, err := economics.NewWorkload(classes...)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", s.ID, err)
	}
	m, err := core.NewModel(facilities, wl)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", s.ID, err)
	}
	m.Mu = s.Mu
	return m, nil
}

// trackIndex resolves the profit-kind tracked facility to its index in the
// expanded facility list (the first replica when the entry is a template).
func (s *Spec) trackIndex() (int, error) {
	idx := 0
	for _, f := range s.Facilities {
		if s.Track == "" || f.Name == s.Track {
			return idx, nil
		}
		idx += f.count()
	}
	return 0, fmt.Errorf("scenario %s: track names unknown facility %q", s.ID, s.Track)
}

// resolvedPolicies maps the policy names to implementations, defaulting to
// shapley + proportional.
func (s *Spec) resolvedPolicies() ([]core.Policy, error) {
	names := s.Policies
	if len(names) == 0 {
		names = []string{"shapley", "proportional"}
	}
	out := make([]core.Policy, len(names))
	for i, name := range names {
		p, err := core.PolicyByName(name)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %w", s.ID, err)
		}
		out[i] = s.parameterize(name, p)
	}
	return out, nil
}

// parameterize passes the spec's method to every Shapley policy. The
// "shapley-approx" policy also takes the spec's sampling parameters, and
// "method": "approx" routes the plain "shapley" entries through it too (so
// a spec flips its existing policy list to sampling by adding one field);
// "exact" holds either to an exact engine, so a federation none fits fails
// the run instead of returning a sampled estimate.
func (s *Spec) parameterize(name string, p core.Policy) core.Policy {
	method := coalition.Method(s.Method)
	approx := core.ApproxShapleyPolicy{Samples: s.Samples, CITarget: s.CITarget, Seed: s.Seed, Method: method}
	switch name {
	case "shapley-approx":
		return approx
	case "", "shapley":
		if s.Method == MethodApprox {
			return approx
		}
		return core.ShapleyPolicy{Method: method}
	}
	return p
}

// sweepVariables lists what a model-backed axis or variant may set.
var sweepVariables = map[string]bool{
	VarThreshold: true, VarShape: true, VarCount: true, VarSigma: true,
	VarLocations: true, VarResources: true, VarMu: true,
}

// Validate checks the spec: kind and axis consistency, facility and demand
// well-formedness, known policies, resolvable targets, and a non-empty
// grid. A valid spec can still fail at Run time only through policy
// computation errors (e.g. a nucleolus LP failure).
func (s *Spec) Validate() error {
	if s.ID == "" {
		return fmt.Errorf("scenario: spec has no id")
	}
	if strings.ContainsAny(s.ID, " \t\n") {
		return fmt.Errorf("scenario: id %q contains whitespace", s.ID)
	}
	if _, err := s.Axis.grid(); err != nil {
		return fmt.Errorf("scenario %s: %w", s.ID, err)
	}
	switch s.Method {
	case "", MethodAuto, MethodExact, MethodApprox:
	default:
		return fmt.Errorf("scenario %s: unknown method %q (have auto, exact, approx)", s.ID, s.Method)
	}
	if s.Samples < 0 {
		return fmt.Errorf("scenario %s: negative sample budget %d", s.ID, s.Samples)
	}
	if s.CITarget < 0 || s.CITarget >= 1 {
		return fmt.Errorf("scenario %s: ci_target %g outside [0, 1) (it is relative to V(N))", s.ID, s.CITarget)
	}
	demandNames := make(map[string]bool, len(s.Demand))
	for i, d := range s.Demand {
		if d.Name == "" {
			return fmt.Errorf("scenario %s: demand class %d has no name", s.ID, i)
		}
		if d.Count < 0 {
			return fmt.Errorf("scenario %s: demand class %s has negative count", s.ID, d.Name)
		}
		if err := d.experimentType().Validate(); err != nil {
			return fmt.Errorf("scenario %s: %w", s.ID, err)
		}
		if demandNames[d.Name] {
			return fmt.Errorf("scenario %s: duplicate demand class %q", s.ID, d.Name)
		}
		demandNames[d.Name] = true
	}
	switch s.kind() {
	case KindUtility:
		if len(s.Demand) == 0 {
			return fmt.Errorf("scenario %s: utility scenario needs demand classes", s.ID)
		}
		if s.Axis.Variable != VarX {
			return fmt.Errorf("scenario %s: utility scenario sweeps %q, want %q", s.ID, s.Axis.Variable, VarX)
		}
		if len(s.Facilities) > 0 || len(s.Policies) > 0 || len(s.Variants) > 0 {
			return fmt.Errorf("scenario %s: utility scenario takes only demand and an x axis", s.ID)
		}
		return nil
	case KindShares, KindProfit:
	default:
		return fmt.Errorf("scenario %s: unknown kind %q", s.ID, s.Kind)
	}
	if len(s.Facilities) == 0 {
		return fmt.Errorf("scenario %s: needs at least one facility", s.ID)
	}
	replicas := 0
	facilityNames := make(map[string]bool, len(s.Facilities))
	for i, f := range s.Facilities {
		if f.Name == "" {
			return fmt.Errorf("scenario %s: facility %d has no name", s.ID, i)
		}
		if f.Count < 0 {
			return fmt.Errorf("scenario %s: facility %s has negative count %d", s.ID, f.Name, f.Count)
		}
		// Bound the expanded federation before anything expands it; each
		// count is checked before it is added, so the sum cannot overflow.
		if f.count() > core.MaxFacilities-replicas {
			return fmt.Errorf("scenario %s: facility %s (count %d) takes the federation past %d facilities",
				s.ID, f.Name, f.count(), core.MaxFacilities)
		}
		replicas += f.count()
		if err := f.facility().Validate(); err != nil {
			return fmt.Errorf("scenario %s: %w", s.ID, err)
		}
		if facilityNames[f.Name] {
			return fmt.Errorf("scenario %s: duplicate facility %q", s.ID, f.Name)
		}
		facilityNames[f.Name] = true
	}
	if _, err := s.resolvedPolicies(); err != nil {
		return err
	}
	if !sweepVariables[s.Axis.Variable] {
		return fmt.Errorf("scenario %s: unknown sweep variable %q", s.ID, s.Axis.Variable)
	}
	// Check every axis value on one scratch copy, so an unresolvable
	// target or a value out of range fails here rather than mid-sweep.
	xs, _ := s.Axis.grid()
	if err := s.clone().checkAxis(xs); err != nil {
		return fmt.Errorf("scenario %s: %w", s.ID, err)
	}
	switch s.kind() {
	case KindShares:
		if len(s.Variants) > 0 {
			return fmt.Errorf("scenario %s: variants are only supported for profit scenarios", s.ID)
		}
		if s.Track != "" {
			return fmt.Errorf("scenario %s: track is only meaningful for profit scenarios", s.ID)
		}
	case KindProfit:
		if _, err := s.trackIndex(); err != nil {
			return err
		}
		for _, v := range s.Variants {
			if v.Name == "" {
				return fmt.Errorf("scenario %s: variant has no name", s.ID)
			}
			c := s.clone()
			for _, set := range v.Set {
				if !sweepVariables[set.Variable] {
					return fmt.Errorf("scenario %s: variant %s sets unknown variable %q", s.ID, v.Name, set.Variable)
				}
				if err := c.apply(set.Variable, set.Target, set.Value); err != nil {
					return fmt.Errorf("scenario %s: variant %s: %w", s.ID, v.Name, err)
				}
			}
			if err := c.checkAxis(xs); err != nil {
				return fmt.Errorf("scenario %s: variant %s: %w", s.ID, v.Name, err)
			}
		}
	}
	return nil
}

// checkAxis applies each axis value in turn, with apply's range checks,
// and checks the swept field of every entry the axis targets by that
// entry's Facility or ExperimentType rule (a threshold against each
// targeted class's MaxLocations), then that the federation's value stays
// finite. apply overwrites only the swept field, so the spec is the
// scratch copy for the whole grid.
func (s *Spec) checkAxis(xs []float64) error {
	variable, target := s.Axis.Variable, s.Axis.Target
	pool := s.poolLocations()
	for _, x := range xs {
		if err := s.apply(variable, target, x); err != nil {
			return err
		}
		var err error
		switch variable {
		case VarLocations, VarResources:
			for _, f := range s.Facilities {
				if err == nil && (target == "" || f.Name == target) {
					err = f.facility().Validate()
				}
			}
			pool = s.poolLocations()
		case VarThreshold, VarShape:
			for _, d := range s.Demand {
				if err == nil && (target == "" || d.Name == target) {
					err = d.experimentType().Validate()
				}
			}
		}
		if err == nil {
			err = s.checkValueFinite(pool)
		}
		if err != nil {
			return fmt.Errorf("axis value %g: %w", x, err)
		}
	}
	return nil
}

// poolLocations is L, the number of locations the whole federation pools.
func (s *Spec) poolLocations() float64 {
	pool := 0.0
	for _, f := range s.Facilities {
		pool += float64(f.count()) * float64(f.Locations)
	}
	return pool
}

// checkValueFinite refuses a spec whose V(N) can overflow float64 on a
// pool of the given L locations. No experiment is assigned more than L
// locations and u grows with x above its threshold, so µ·Σ_k count_k·u_k(L)
// bounds every V(S); while it is finite, so is each x^d, gain and share the
// engines compute.
func (s *Spec) checkValueFinite(pool float64) error {
	v := 0.0
	for _, d := range s.Demand {
		if d.Count > 0 {
			v += float64(d.Count) * d.experimentType().Utility().Eval(pool)
		}
	}
	if s.Mu != 0 {
		v *= s.Mu
	}
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return fmt.Errorf("V(N) with every experiment on all %g pooled locations overflows float64; lower a shape, count or mu", pool)
	}
	return nil
}

// ParseSpec decodes a JSON spec, rejecting unknown fields so typos in user
// scenario files fail loudly instead of silently running a different
// experiment. The decoded spec is validated.
func ParseSpec(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: decode spec: %w", err)
	}
	// Reject anything but whitespace after the spec object. dec.More is
	// not enough: it reports false at a stray closing '}' or ']'.
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("scenario: trailing data after spec object")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// JSON encodes the spec as indented JSON (the ParseSpec inverse).
func (s *Spec) JSON() ([]byte, error) {
	out, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("scenario: encode spec: %w", err)
	}
	return append(out, '\n'), nil
}
