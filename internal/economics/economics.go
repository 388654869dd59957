// Package economics defines the paper's economic primitives: the
// threshold-power utility function of Sec. 2.3.1, the linear cost model of
// Sec. 2.3.2, and the demand model of Sec. 2.2 (experiment types with a
// diversity threshold l, per-location resources r, and holding time t).
package economics

import (
	"fmt"
	"math"
)

// ThresholdPower is the paper's utility family (equation (1)): the value
// an experiment's owner derives from x assigned distinct locations,
//
//	u(x) = x^d   if x ≥ l   (or x > l when Strict),
//	u(x) = 0     otherwise.
//
// d < 1 is concave above the threshold, d = 1 linear, d > 1 convex (Fig 2).
//
// Strictness note: equation (1) of the paper reads "x ≥ l", but the worked
// example of Sec. 4.1 (φ̂₂ = 2/13 at l = 500) is only reproducible with the
// strict form "x > l". The difference matters only when x lands exactly on
// the threshold; both are provided and EXPERIMENTS.md records the choice per
// figure.
type ThresholdPower struct {
	L      float64 // minimum number of distinct locations
	D      float64 // shape exponent
	Strict bool    // true: accept only x > L; false: accept x >= L
}

// Eval returns u(x) for x assigned distinct locations.
func (u ThresholdPower) Eval(x float64) float64 {
	if x <= 0 {
		return 0
	}
	if u.Strict {
		if x <= u.L {
			return 0
		}
	} else if x < u.L {
		return 0
	}
	return math.Pow(x, u.D)
}

// Threshold returns the minimum acceptable location count as an integer:
// the smallest whole x with u(x) > 0, saturated as LocationCount does.
func (u ThresholdPower) Threshold() int {
	if u.L <= 0 {
		if u.Strict && u.L == 0 {
			return 1
		}
		return 0
	}
	c := math.Ceil(u.L)
	l := LocationCount(c)
	if u.Strict && c == u.L && l < math.MaxInt {
		l++
	}
	return l
}

// LocationCount converts a whole number of locations held in a float64
// to an int, saturating at math.MaxInt, a count no pool reaches. The
// comparison is made in float64 before converting, so a count past the
// int range (a spec's "min_locations": 1e300) cannot wrap negative.
func LocationCount(x float64) int {
	if x < float64(math.MaxInt) { // so x < MaxInt+1, and int(x) fits
		return int(x)
	}
	return math.MaxInt
}

// Cost is the per-facility provision cost model of Sec. 2.3.2:
// c_i(L_i, R_i, T_i) = α·L_i + β·R_i + γ·T_i, plus the fixed federation cost
// c_F. The paper's numerical analysis sets all of these to zero (costs are
// sunk/subsidized); the model is kept for the decision stage of the game.
type Cost struct {
	Alpha, Beta, Gamma float64 // weights on locations, resources, availability
	Fixed              float64 // fixed federation cost c_F
}

// Eval returns the provision cost of contributing (locations, resources,
// availability).
func (c Cost) Eval(locations, resources, availability float64) float64 {
	return c.Alpha*locations + c.Beta*resources + c.Gamma*availability + c.Fixed
}

// ExperimentType describes one class of demand (Sec. 2.2): an experiment
// needs at least MinLocations distinct locations, at most MaxLocations
// (+Inf when unbounded), Resources units at each assigned location, and
// holds them for HoldingTime (1 = full period; < 1 enables statistical
// multiplexing).
type ExperimentType struct {
	Name         string
	MinLocations float64 // l_k
	MaxLocations float64 // l̄_k (+Inf if unlimited)
	Resources    float64 // r_kl, assumed uniform over locations
	HoldingTime  float64 // t_kl ∈ (0, 1]
	Shape        float64 // utility exponent d
	Strict       bool    // strict threshold (see ThresholdPower)
}

// Utility returns the type's utility function.
func (e ExperimentType) Utility() ThresholdPower {
	return ThresholdPower{L: e.MinLocations, D: e.Shape, Strict: e.Strict}
}

// Validate checks the type for modelling errors.
func (e ExperimentType) Validate() error {
	if e.MinLocations < 0 {
		return fmt.Errorf("economics: %s: negative MinLocations", e.Name)
	}
	if e.MaxLocations < e.MinLocations {
		return fmt.Errorf("economics: %s: MaxLocations %g < MinLocations %g", e.Name, e.MaxLocations, e.MinLocations)
	}
	if !(e.Resources > 0) || math.IsInf(e.Resources, 1) {
		return fmt.Errorf("economics: %s: Resources must be positive and finite", e.Name)
	}
	if e.HoldingTime <= 0 || e.HoldingTime > 1 {
		return fmt.Errorf("economics: %s: HoldingTime must be in (0,1]", e.Name)
	}
	if !(e.Shape > 0) || math.IsInf(e.Shape, 1) {
		return fmt.Errorf("economics: %s: Shape must be positive and finite", e.Name)
	}
	return nil
}

// The three PlanetLab experiment archetypes of Sec. 2.2.
var (
	// P2PExperiment: a peer-to-peer experiment — modest diversity, light
	// per-node footprint, short holding time.
	P2PExperiment = ExperimentType{
		Name: "p2p", MinLocations: 40, MaxLocations: math.Inf(1),
		Resources: 1, HoldingTime: 0.1, Shape: 1,
	}
	// CDNService: a content-distribution service — bounded location range,
	// heavier per-node resources, holds resources continuously.
	CDNService = ExperimentType{
		Name: "cdn", MinLocations: 100, MaxLocations: 500,
		Resources: 4, HoldingTime: 1, Shape: 1,
	}
	// MeasurementExperiment: a measurement study — diversity-hungry,
	// medium footprint.
	MeasurementExperiment = ExperimentType{
		Name: "measurement", MinLocations: 500, MaxLocations: math.Inf(1),
		Resources: 2, HoldingTime: 0.4, Shape: 1,
	}
)

// DemandClass is one component of a workload: Count experiments of one type.
type DemandClass struct {
	Type  ExperimentType
	Count int
}

// Workload is a finite batch of experiments requesting admission, grouped by
// type.
type Workload struct {
	Classes []DemandClass
}

// NewWorkload builds a workload, validating every class.
func NewWorkload(classes ...DemandClass) (*Workload, error) {
	for _, c := range classes {
		if err := c.Type.Validate(); err != nil {
			return nil, err
		}
		if c.Count < 0 {
			return nil, fmt.Errorf("economics: negative count for %s", c.Type.Name)
		}
	}
	return &Workload{Classes: classes}, nil
}

// Total returns the total number of experiments in the workload.
func (w *Workload) Total() int {
	n := 0
	for _, c := range w.Classes {
		n += c.Count
	}
	return n
}

// ArrivalSpec describes a Poisson demand stream for the loss-network
// simulator: experiments of the given type arrive at Rate per unit time and
// hold resources for their HoldingTime.
type ArrivalSpec struct {
	Type ExperimentType
	Rate float64 // arrivals per unit time
}

// Validate checks the spec.
func (a ArrivalSpec) Validate() error {
	if a.Rate < 0 {
		return fmt.Errorf("economics: negative arrival rate for %s", a.Type.Name)
	}
	return a.Type.Validate()
}
