package core

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"fedshare/internal/allocation"
	"fedshare/internal/coalition"
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
			if got, want := overlapped.Value(s), flat.Value(s); got != want {
				t.Fatalf("trial %d: V(%v) overlap %g != flat %g (facilities %+v)",
					trial, s, got, want, fs)
			}
		}
	}
}

// TestOverlapModelsBypassMemo is the memo-key regression test: overlap
// models are uncacheable — their Value calls must not touch the process-
// wide allocation memo — while an identically-shaped no-overlap model must.
func TestOverlapModelsBypassMemo(t *testing.T) {
	fs := []Facility{
		{Name: "A", Locations: 3, Resources: 1},
		{Name: "B", Locations: 4, Resources: 1},
	}
	wl := testWorkload(t, 2, 3)

	overlapped, err := NewModel(fs, wl)
	if err != nil {
		t.Fatal(err)
	}
	overlapped.Overlap = disjointOverlap(fs)
	before := allocation.DefaultMemo.Stats()
	for s := combin.Set(1); s <= combin.Full(2); s++ {
		overlapped.Value(s)
	}
	after := allocation.DefaultMemo.Stats()
	if after.Hits != before.Hits || after.Misses != before.Misses {
		t.Fatalf("overlap model touched the memo: %+v -> %+v", before, after)
	}

	flat, err := NewModel(fs, wl)
	if err != nil {
		t.Fatal(err)
	}
	before = after
	for s := combin.Set(1); s <= combin.Full(2); s++ {
		flat.Value(s)
	}
	after = allocation.DefaultMemo.Stats()
	if after.Hits+after.Misses == before.Hits+before.Misses {
		t.Fatal("no-overlap model did not use the memo")
	}
}

// TestCollapsedGameBypassesMemo is the memo-isolation regression test: the
// collapsed class game values its walked steps through its own prefix
// solvers, or its own count-vector memo where a solver cannot certify a
// step, so a sampled share computation on a templated federation past the
// bitmask bound may touch the process-wide allocation memo only for its
// direct V(N) evaluations, never once per count vector.
func TestCollapsedGameBypassesMemo(t *testing.T) {
	m := heteroModel(t, 120, 4)
	before := allocation.DefaultMemo.Stats()
	res, err := ApproxShapleyPolicy{Samples: 64, Seed: 5, Method: coalition.MethodApprox}.Result(m)
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != coalition.EngineApproxCollapsed {
		t.Fatalf("engine %q, want %q", res.Method, coalition.EngineApproxCollapsed)
	}
	normalizeByGrand(m, res.Phi)
	after := allocation.DefaultMemo.Stats()
	if lookups := after.Hits + after.Misses - before.Hits - before.Misses; lookups > 2 {
		t.Errorf("collapsed game made %d allocation-memo lookups, want at most 2 (direct V(N))", lookups)
	}
	if grown := after.Entries - before.Entries; grown > 2 {
		t.Errorf("allocation memo grew by %d entries, want at most 2 (direct V(N))", grown)
	}
}

// TestGameConcurrentInit races many goroutines through the lazy Table()
// init, table reads and GrandValue (run under -race); all must see one
// table.
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
				g.Value(s)
			}
			m.GrandValue()
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if games[w] != games[0] {
			t.Fatal("concurrent Table() built more than one table")
		}
	}
}
