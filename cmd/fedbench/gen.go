package main

import (
	"fmt"
	"hash/fnv"
	"math"

	"fedshare/internal/faultnet"
	"fedshare/internal/scenario"
	"fedshare/internal/stats"
)

// Seeded input generators. Every generated input is a pure function of the
// workload seed and the instance size (1 = benchmark size; tests shrink it),
// so two runs with one seed measure the same inputs.

// scaled returns n·size rounded, at least lo.
func scaled(n int, size float64, lo int) int {
	v := int(math.Round(float64(n) * size))
	if v < lo {
		return lo
	}
	return v
}

// subSeed derives an independent stream seed for one generated input.
func subSeed(seed uint64, salt string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(salt))
	return stats.NewRand(seed ^ h.Sum64()).Uint64()
}

// heteroTemplates are hetero200's six facility templates (200 facilities).
var heteroTemplates = []scenario.FacilitySpec{
	{Name: "EDGE", Locations: 8, Resources: 10, Count: 70},
	{Name: "CAMPUS", Locations: 20, Resources: 5, Count: 50},
	{Name: "METRO", Locations: 50, Resources: 3, Count: 40},
	{Name: "REGION", Locations: 120, Resources: 2, Count: 25},
	{Name: "CORE", Locations: 300, Resources: 1, Count: 10},
	{Name: "HUB", Locations: 600, Resources: 1, Count: 5},
}

// federationThresholds are hetero200's sweep points, one job each.
var federationThresholds = []float64{0, 2000, 4000, 6000}

// federationSpecs builds the federation workload: hetero200 as four
// single-point jobs, sampled to a 1% CI. The seed selects each job's
// sample stream.
func federationSpecs(seed uint64, size float64) []*scenario.Spec {
	var specs []*scenario.Spec
	for _, l := range federationThresholds {
		facs := append([]scenario.FacilitySpec(nil), heteroTemplates...)
		for i := range facs {
			facs[i].Count = scaled(facs[i].Count, size, 1)
		}
		l = math.Round(l * size)
		id := fmt.Sprintf("federation-l%g", l)
		specs = append(specs, &scenario.Spec{
			ID:         id,
			XLabel:     "l",
			Facilities: facs,
			Demand:     []scenario.DemandSpec{{Name: "batch", Count: 120, MinLocations: l}},
			Policies:   []string{"shapley-approx", "proportional"},
			Axis:       scenario.AxisSpec{Variable: scenario.VarThreshold, Values: []float64{l}},
			Method:     scenario.MethodApprox,
			CITarget:   0.01,
			Seed:       subSeed(seed, id),
		})
	}
	return specs
}

// walkSpec builds the walk workload: n = 2000 distinct facilities drawn
// from the seed, linear uniform-resource demand (so every prefix step is
// valued on the PrefixSolver's Gale–Ryser fast path), and a fixed budget
// of 2n permutations.
func walkSpec(seed uint64, size float64) *scenario.Spec {
	n := scaled(2000, size, 8)
	rng := stats.NewRand(subSeed(seed, "walk"))
	type sig struct{ l, r int }
	seen := map[sig]bool{}
	facs := make([]scenario.FacilitySpec, 0, n)
	total := 0
	for len(facs) < n {
		s := sig{5 + rng.Intn(496), 1 + rng.Intn(16)}
		if seen[s] {
			continue
		}
		seen[s] = true
		total += s.l
		facs = append(facs, scenario.FacilitySpec{
			Name: fmt.Sprintf("W%04d", len(facs)), Locations: s.l, Resources: float64(s.r),
		})
	}
	l := float64(total / 4)
	return &scenario.Spec{
		ID:         "walk",
		XLabel:     "l",
		Facilities: facs,
		Demand:     []scenario.DemandSpec{{Name: "batch", Count: 100, MinLocations: l}},
		Policies:   []string{"shapley-approx"},
		Axis:       scenario.AxisSpec{Variable: scenario.VarThreshold, Values: []float64{l}},
		Method:     scenario.MethodApprox,
		Samples:    2 * n,
		Seed:       rng.Uint64(),
	}
}

// scarceSpec builds the scarce workload: n = 30 distinct facilities with
// 1–5 resources per location against elastic and strict demand that
// together need far more than any location holds, so no prefix step can be
// certified incrementally and every one falls back to a full Solve.
// Facilities come in pairs sharing a location count, the second one
// resource level above the first, so no two are alike. The facilities are
// fixed, so every seed poses the same game (a full Solve's cost depends on
// the pool); the seed orders the players and selects the sample stream.
func scarceSpec(seed uint64, size float64) *scenario.Spec {
	n := scaled(30, size, 6)
	rng := stats.NewRand(subSeed(seed, "scarce"))
	facs := make([]scenario.FacilitySpec, n)
	for pos, i := range rng.Perm(n) {
		facs[pos] = scenario.FacilitySpec{
			Name:      fmt.Sprintf("S%02d", pos),
			Locations: 1 + i/2,
			Resources: float64(1 + (i/2+i%2)%5),
		}
	}
	return &scenario.Spec{
		ID:         "scarce",
		XLabel:     "l",
		Facilities: facs,
		Demand: []scenario.DemandSpec{
			{Name: "elastic", Count: 12, MinLocations: 10, Shape: 0.7},
			{Name: "strict", Count: 6, MinLocations: 80, Shape: 1.3, Resources: 2, Strict: true},
		},
		Policies: []string{"shapley-approx"},
		Axis:     scenario.AxisSpec{Variable: scenario.VarThreshold, Target: "strict", Values: []float64{80}},
		Method:   scenario.MethodApprox,
		Samples:  2 * n,
		Seed:     rng.Uint64(),
	}
}

// lifecycle is one planned slice lifecycle of the plane workloads.
type lifecycle struct {
	Name         string  `json:"name"`
	MaxSites     int     `json:"max_sites"`
	ReserveSites int     `json:"reserve_sites"`
	TTLSeconds   float64 `json:"ttl_s"`
	Shares       bool    `json:"shares"`
}

// planLifecycle returns lifecycle i of the seed's plan. A slice spans
// 41–120 sites, so it always reaches past the coordinator's 40 sites to
// PLE, and to PLJ when it needs more than 80. TTLs far exceed a run, so
// leases never expire mid-lifecycle.
func planLifecycle(seed uint64, i int) lifecycle {
	rng := stats.NewRand(subSeed(seed, fmt.Sprintf("lifecycle/%d", i)))
	return lifecycle{
		Name:         fmt.Sprintf("lc%d-%d", seed, i),
		MaxSites:     41 + rng.Intn(80),
		ReserveSites: 1 + rng.Intn(4),
		TTLSeconds:   float64(60 + rng.Intn(241)),
		Shares:       i%8 == 7,
	}
}

// partitionPlan is churn's cut/heal schedule, in completed lifecycles.
// Enough windows are drawn that a run never exhausts them.
func partitionPlan(seed uint64) []faultnet.PartitionWindow {
	return faultnet.DrawPartitionPlan(subSeed(seed, "partition"), faultnet.PartitionPlanConfig{
		Windows: 512, MinUpOps: 900, MaxUpOps: 1100, MinDownOps: 150, MaxDownOps: 250,
	})
}
