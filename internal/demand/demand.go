// Package demand provides the demand-side data machinery the paper's
// policy-design workflow needs: a synthetic trace generator standing in for
// the proprietary CoMon measurements of PlanetLab user behaviour the
// authors analyzed (reference [23] — unavailable, substituted per
// DESIGN.md), and an estimator that classifies observed experiments back
// into a small set of types, producing the expected-demand mixture that
// Sec. 4.3.2 says federation policies should be tuned to.
package demand

import (
	"fmt"
	"math"
	"sort"

	"fedshare/internal/economics"
	"fedshare/internal/stats"
)

// Observation is one observed experiment: what a testbed's logs record.
type Observation struct {
	Slice     string
	Locations int     // distinct locations the experiment used
	Resources float64 // per-location resource footprint
	Holding   float64 // fraction of the observation window held
}

// TraceConfig drives the synthetic generator.
type TraceConfig struct {
	// Count is the number of observations to draw.
	Count int
	Seed  uint64
}

// weightedType couples an experiment type with its mixture weight.
type weightedType struct {
	Type   economics.ExperimentType
	Weight float64
}

// archetypes are the ground-truth experiment types of the trace: the
// paper's three PlanetLab archetypes with weights 0.6 / 0.1 / 0.3 (P2P
// experiments dominate counts, CDN services are rare, measurement studies
// substantial).
var archetypes = []weightedType{
	{Type: economics.P2PExperiment, Weight: 0.6},
	{Type: economics.CDNService, Weight: 0.1},
	{Type: economics.MeasurementExperiment, Weight: 0.3},
}

// locationJitter is the relative spread of the location counts around each
// archetype's threshold.
const locationJitter = 0.3

// Generate draws a synthetic observation trace. Each observation samples an
// archetype by weight, then jitters its location count multiplicatively
// (truncated at the archetype's threshold so observations remain feasible
// examples of their class) and its holding time by ±25%.
func Generate(cfg TraceConfig) ([]Observation, error) {
	if cfg.Count < 0 {
		return nil, fmt.Errorf("demand: negative count")
	}
	total := 0.0
	for _, a := range archetypes {
		total += a.Weight
	}
	rng := stats.NewRand(cfg.Seed)
	out := make([]Observation, 0, cfg.Count)
	for i := 0; i < cfg.Count; i++ {
		// Sample an archetype.
		u := rng.Float64() * total
		var chosen economics.ExperimentType
		for _, a := range archetypes {
			if u < a.Weight {
				chosen = a.Type
				break
			}
			u -= a.Weight
		}
		if chosen.Name == "" {
			chosen = archetypes[len(archetypes)-1].Type
		}
		base := chosen.MinLocations
		if base == 0 {
			base = 10
		}
		locs := base * (1 + locationJitter*rng.Float64())
		if !math.IsInf(chosen.MaxLocations, 1) && locs > chosen.MaxLocations {
			locs = chosen.MaxLocations
		}
		hold := chosen.HoldingTime * (0.75 + 0.5*rng.Float64())
		if hold > 1 {
			hold = 1
		}
		out = append(out, Observation{
			Slice:     fmt.Sprintf("%s-%04d", chosen.Name, i),
			Locations: int(math.Round(locs)),
			Resources: chosen.Resources,
			Holding:   hold,
		})
	}
	return out, nil
}

// Estimate classifies observations against candidate types by nearest
// match (log-space distance over locations, resources and holding time) and
// returns the estimated workload mixture. It is the "construct more
// realistic utility functions" step of Sec. 4.3.2: given logs, recover the
// type mixture that federation policies should be calibrated against.
func Estimate(obs []Observation, candidates []economics.ExperimentType) (*economics.Workload, error) {
	if len(candidates) == 0 {
		return nil, fmt.Errorf("demand: no candidate types")
	}
	for _, c := range candidates {
		if err := c.Validate(); err != nil {
			return nil, err
		}
	}
	counts := make([]int, len(candidates))
	for _, o := range obs {
		if o.Locations <= 0 || o.Resources <= 0 || o.Holding <= 0 {
			return nil, fmt.Errorf("demand: invalid observation %+v", o)
		}
		best, bestD := -1, math.Inf(1)
		for ci, c := range candidates {
			ref := c.MinLocations
			if ref == 0 {
				ref = 10
			}
			d := sq(math.Log(float64(o.Locations)/ref)) +
				sq(math.Log(o.Resources/c.Resources)) +
				sq(math.Log(o.Holding/c.HoldingTime))
			if d < bestD {
				bestD = d
				best = ci
			}
		}
		counts[best]++
	}
	var classes []economics.DemandClass
	for ci, c := range candidates {
		if counts[ci] > 0 {
			classes = append(classes, economics.DemandClass{Type: c, Count: counts[ci]})
		}
	}
	return economics.NewWorkload(classes...)
}

func sq(x float64) float64 { return x * x }

// MixtureSummary describes an estimated workload for reporting.
type MixtureSummary struct {
	Name     string
	Count    int
	Fraction float64
}

// Summarize reports a workload's mixture, largest class first.
func Summarize(w *economics.Workload) []MixtureSummary {
	total := w.Total()
	var out []MixtureSummary
	for _, c := range w.Classes {
		frac := 0.0
		if total > 0 {
			frac = float64(c.Count) / float64(total)
		}
		out = append(out, MixtureSummary{Name: c.Type.Name, Count: c.Count, Fraction: frac})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Name < out[j].Name
	})
	return out
}
