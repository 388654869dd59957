package core

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"fedshare/internal/combin"
	"fedshare/internal/economics"
)

func testWorkload(t *testing.T, l float64, k int) *economics.Workload {
	t.Helper()
	wl, err := economics.NewWorkload(economics.DemandClass{
		Type: economics.ExperimentType{
			Name: "e", MinLocations: l, MaxLocations: math.Inf(1),
			Resources: 1, HoldingTime: 1, Shape: 1,
		},
		Count: k,
	})
	if err != nil {
		t.Fatal(err)
	}
	return wl
}

// disjointOverlap assigns facility i the location identifiers
// [offset_i, offset_i + L_i): an explicit pairwise-disjoint cover, the
// overlap structure that must be equivalent to the no-overlap model.
func disjointOverlap(facilities []Facility) [][]int {
	out := make([][]int, len(facilities))
	next := 0
	for i, f := range facilities {
		ids := make([]int, f.Locations)
		for j := range ids {
			ids[j] = next
			next++
		}
		out[i] = ids
	}
	return out
}

// TestOverlapDisjointReproducesNoOverlap is the overlap-pooling property
// test: with a pairwise-disjoint cover the overlap branch of poolFor must
// reproduce the no-overlap V(S) exactly for every coalition, across
// randomized facility configurations and demands.
func TestOverlapDisjointReproducesNoOverlap(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(2)
		fs := make([]Facility, n)
		for i := range fs {
			fs[i] = Facility{
				Name:      string(rune('A' + i)),
				Locations: rng.Intn(7),
				Resources: []float64{1, 2, 3}[rng.Intn(3)],
			}
		}
		wl := testWorkload(t, float64(rng.Intn(10)), 1+rng.Intn(6))

		flat, err := NewModel(fs, wl)
		if err != nil {
			t.Fatal(err)
		}
		overlapped, err := NewModel(fs, wl)
		if err != nil {
			t.Fatal(err)
		}
		overlapped.Overlap = disjointOverlap(fs)

		for s := combin.Set(1); s <= combin.Full(n); s++ {
			if got, want := overlapped.value(s), flat.value(s); got != want {
				t.Fatalf("trial %d: V(%v) overlap %g != flat %g (facilities %+v)",
					trial, s, got, want, fs)
			}
		}
	}
}

// TestGrandResultShared checks the one allocation a model keeps: the
// grand coalition's Result, which the table's V(N) stores while Table
// snapshots, and which GrandValue and ConsumptionByFacility read instead
// of solving again.
func TestGrandResultShared(t *testing.T) {
	m, err := NewModel([]Facility{
		{Name: "A", Locations: 5, Resources: 1},
		{Name: "B", Locations: 8, Resources: 1},
		{Name: "C", Locations: 3, Resources: 2},
	}, testWorkload(t, 4, 5))
	if err != nil {
		t.Fatal(err)
	}
	table, err := m.Table()
	if err != nil {
		t.Fatal(err)
	}
	g := m.grand
	if g == nil {
		t.Fatal("Table left no grand Result on the model")
	}
	if got, want := table.Values[combin.Full(3)], g.Utility; got != want {
		t.Fatalf("table V(N) = %g, grand Result's utility %g", got, want)
	}
	// Overwrite the stored Result: a reader that solved again would not
	// see these values.
	g.Utility = 1234.5
	g.ConsumedByClass = []float64{1, 2, 3}
	if got := m.GrandValue(); got != 1234.5 {
		t.Errorf("GrandValue = %g, want the stored Result's 1234.5", got)
	}
	if got := m.ConsumptionByFacility(); !slices.Equal(got, []float64{1, 2, 3}) {
		t.Errorf("ConsumptionByFacility = %v, want the stored Result's [1 2 3]", got)
	}
	if m.grand != g {
		t.Fatal("a reader replaced the grand Result")
	}
}

// TestGameConcurrentInit races many goroutines through the lazy Table()
// init, table reads, GrandValue and ConsumptionByFacility (run under
// -race); all must see one table.
func TestGameConcurrentInit(t *testing.T) {
	m, err := NewModel([]Facility{
		{Name: "A", Locations: 5, Resources: 1},
		{Name: "B", Locations: 8, Resources: 1},
		{Name: "C", Locations: 3, Resources: 2},
	}, testWorkload(t, 4, 5))
	if err != nil {
		t.Fatal(err)
	}
	const workers = 16
	games := make([]interface{}, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			g, err := m.Table()
			if err != nil {
				t.Error(err)
				return
			}
			games[w] = g
			for s := combin.Set(1); s <= combin.Full(3); s++ {
				_ = g.Values[s]
			}
			m.GrandValue()
			m.ConsumptionByFacility()
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if games[w] != games[0] {
			t.Fatal("concurrent Table() built more than one table")
		}
	}
}
