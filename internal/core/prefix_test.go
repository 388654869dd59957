package core

import (
	"sync"
	"testing"

	"fedshare/internal/economics"
	"fedshare/internal/stats"
)

// greedyModel builds a federation whose demand is off the allocation fast
// path (bounded Max, sublinear shape), so prefix walks run the greedy
// repair/fallback machinery: facility capacities straddle the total
// resource demand, making some prefixes certificate-abundant and others
// not.
func greedyModel(t *testing.T, n int) *Model {
	t.Helper()
	wl, err := economics.NewWorkload(economics.DemandClass{
		Type: economics.ExperimentType{
			Name: "elastic", MinLocations: 2, MaxLocations: 6,
			Resources: 1, HoldingTime: 1, Shape: 0.8,
		},
		Count: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	fs := make([]Facility, n)
	for i := range fs {
		fs[i] = Facility{
			Name:      fsName(i, i%7),
			Locations: 2 + i%5,
			Resources: float64(3 + i%13),
		}
	}
	// A zero-location facility exercises the walker's skip path.
	fs[n-1].Locations = 0
	m, err := NewModel(fs, wl)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestModelPrefixValuerMatchesValueMembers walks random permutations
// through Model.PrefixValuer and requires bit-identical values to
// ValueMembers at every prefix, on both allocation paths.
func TestModelPrefixValuerMatchesValueMembers(t *testing.T) {
	models := map[string]*Model{
		"fast":   heteroModel(t, 14, 5),
		"greedy": greedyModel(t, 14),
	}
	rng := stats.NewRand(31)
	for name, m := range models {
		pv := m.PrefixValuer()
		if pv == nil {
			t.Fatalf("%s: nil PrefixValuer on a disjoint model", name)
		}
		n := m.N()
		for walk := 0; walk < 30; walk++ {
			perm := rng.Perm(n)
			pv.Reset()
			for k := 1; k <= n; k++ {
				got := pv.Extend(perm[k-1])
				if want := m.ValueMembers(perm[:k]); got != want {
					t.Fatalf("%s walk %d prefix %d: incremental %.17g, direct %.17g",
						name, walk, k, got, want)
				}
			}
		}
	}
}

// TestModelPrefixValuerNilForOverlap: overlap models have no incremental
// pool state; the walker must fall back to ValueMembers.
func TestModelPrefixValuerNilForOverlap(t *testing.T) {
	m := heteroModel(t, 6, 2)
	if _, err := m.WithOverlap(40, stats.NewRand(1)); err != nil {
		t.Fatal(err)
	}
	if m.PrefixValuer() != nil {
		t.Fatal("overlap model handed out a PrefixValuer")
	}
}

// TestPrefixWalkersConcurrentOnSharedModel races many incremental walkers
// of one model against each other and concurrent ValueMembers readers
// (meaningful under -race; correctness is asserted per step).
func TestPrefixWalkersConcurrentOnSharedModel(t *testing.T) {
	m := greedyModel(t, 12)
	n := m.N()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := stats.NewRand(seed)
			pv := m.PrefixValuer()
			for walk := 0; walk < 10; walk++ {
				perm := rng.Perm(n)
				pv.Reset()
				for k := 1; k <= n; k++ {
					got := pv.Extend(perm[k-1])
					if want := m.ValueMembers(perm[:k]); got != want {
						t.Errorf("worker %d: prefix %d differs: %.17g vs %.17g", seed, k, got, want)
						return
					}
				}
			}
		}(uint64(w + 1))
	}
	wg.Wait()
}
