package allocation

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"fedshare/internal/stats"
)

// sameResult reports the first difference between two greedy results:
// X and SlotsByClass must be equal, Utility and ConsumedByClass equal bit
// for bit.
func sameResult(got, want *Result) error {
	if len(got.X) != len(want.X) || len(got.SlotsByClass) != len(want.SlotsByClass) ||
		len(got.ConsumedByClass) != len(want.ConsumedByClass) {
		return fmt.Errorf("shape: got %d/%d/%d, want %d/%d/%d", len(got.X), len(got.SlotsByClass),
			len(got.ConsumedByClass), len(want.X), len(want.SlotsByClass), len(want.ConsumedByClass))
	}
	if math.Float64bits(got.Utility) != math.Float64bits(want.Utility) {
		return fmt.Errorf("Utility %v, want %v", got.Utility, want.Utility)
	}
	for j := range want.X {
		if got.X[j] != want.X[j] {
			return fmt.Errorf("X[%d] = %d, want %d", j, got.X[j], want.X[j])
		}
	}
	for c := range want.SlotsByClass {
		if got.SlotsByClass[c] != want.SlotsByClass[c] {
			return fmt.Errorf("SlotsByClass[%d] = %d, want %d", c, got.SlotsByClass[c], want.SlotsByClass[c])
		}
		if math.Float64bits(got.ConsumedByClass[c]) != math.Float64bits(want.ConsumedByClass[c]) {
			return fmt.Errorf("ConsumedByClass[%d] = %v, want %v", c, got.ConsumedByClass[c], want.ConsumedByClass[c])
		}
	}
	return nil
}

// checkGreedy compares both admission orders and solveGreedy against the
// scan-based oracle.
func checkGreedy(pool Pool, reqs []Request) error {
	s := new(greedyScratch)
	asc, desc := greedyWithOrder(pool, reqs, true), greedyWithOrder(pool, reqs, false)
	if err := sameResult(s.run(pool, reqs, true), asc); err != nil {
		return fmt.Errorf("ascending order: %v", err)
	}
	if err := sameResult(s.run(pool, reqs, false), desc); err != nil {
		return fmt.Errorf("descending order: %v", err)
	}
	want := asc
	if desc.Utility > asc.Utility {
		want = desc
	}
	if err := sameResult(solveGreedy(pool, reqs), want); err != nil {
		return fmt.Errorf("solveGreedy: %v", err)
	}
	return nil
}

var greedyShapes = []float64{0.5, 0.7, 0.8, 1.3, 1.5, 2}

// randGreedyInstance draws a pool of 1–12 classes with integer,
// fractional and zero capacities, and requests with integer or fractional
// resources, minima from 0 up, bounded or unbounded maxima, and concave or
// convex shapes. One instance in four is large: up to 20 locations per
// class (so the location count crosses 64 and 128 and bitsets span several
// words) and up to 20 requests; the rest stay below 8 of each, which keeps
// the scan-based oracle's cost down.
func randGreedyInstance(rng *stats.Rand) (Pool, []Request) {
	size := 8
	if rng.Intn(4) == 0 {
		size = 21
	}
	classes := make([]Class, 1+rng.Intn(12))
	L := 0
	for c := range classes {
		capacity := 0.0
		switch rng.Intn(5) {
		case 1, 2:
			capacity = float64(1 + rng.Intn(5))
		case 3:
			capacity = float64(rng.Intn(24)) / 4
		case 4:
			capacity = rng.Float64() * 6
		}
		classes[c] = Class{Label: "c", Count: rng.Intn(size), Capacity: capacity}
		L += classes[c].Count
	}
	reqs := make([]Request, 1+rng.Intn(size-1))
	for j := range reqs {
		r := Request{Shape: greedyShapes[rng.Intn(len(greedyShapes))]}
		if rng.Intn(4) > 0 {
			r.Min = rng.Intn(L/2 + 2)
		}
		if rng.Intn(3) == 0 {
			r.Max = 1 + rng.Intn(L+1)
		}
		switch rng.Intn(3) {
		case 0:
			r.Resources = float64(1 + rng.Intn(3))
		case 1:
			r.Resources = float64(1+rng.Intn(12)) / 4
		default:
			r.Resources = 0.1 + rng.Float64()*3
		}
		reqs[j] = r
	}
	return Pool{Classes: classes}, reqs
}

// TestGreedyMatchesOracle requires the indexed greedy engine to reproduce
// the scan-based engine bit for bit on random instances and on the
// benchmark pools.
func TestGreedyMatchesOracle(t *testing.T) {
	rng := stats.NewRand(15)
	for i := 0; i < 20000; i++ {
		pool, reqs := randGreedyInstance(rng)
		if err := checkGreedy(pool, reqs); err != nil {
			t.Fatalf("instance %d (pool %+v, requests %+v): %v", i, pool, reqs, err)
		}
	}
	pool, reqs := scarceInstance()
	if err := checkGreedy(pool, reqs); err != nil {
		t.Fatalf("scarce grand pool: %v", err)
	}
	for _, p := range fig5Pools() {
		for i := 1; i <= 25; i++ {
			reqs := []Request{{Min: 600, Shape: float64(i) / 10, Resources: 1}}
			if err := checkGreedy(p, reqs); err != nil {
				t.Fatalf("fig5 %d locations, d = %g: %v", p.TotalLocations(), reqs[0].Shape, err)
			}
		}
	}
}

// TestSolveGreedyConcurrent solves different scarce-type pools on eight
// goroutines at once, each drawing the engine's pooled scratch, and checks
// every result against the oracle.
func TestSolveGreedyConcurrent(t *testing.T) {
	base, reqs := scarceInstance()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		rng := stats.NewRand(uint64(100 + g))
		var pool Pool
		for _, i := range rng.Perm(len(base.Classes))[:12+2*g] {
			pool.Classes = append(pool.Classes, base.Classes[i])
		}
		want := greedyWithOrder(pool, reqs, true)
		if alt := greedyWithOrder(pool, reqs, false); alt.Utility > want.Utility {
			want = alt
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 20; n++ {
				if err := sameResult(solveGreedy(pool, reqs), want); err != nil {
					t.Errorf("%d classes, solve %d: %v", len(pool.Classes), n, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// FuzzSolveGreedy decodes bytes into a pool of at most 12 classes of at
// most 16 locations and at most 12 requests, and requires the greedy
// engine to match the oracle without panicking. The seed corpus lives in
// testdata/fuzz/FuzzSolveGreedy.
func FuzzSolveGreedy(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		pool, reqs := decodeGreedyInstance(data)
		if err := checkGreedy(pool, reqs); err != nil {
			t.Fatalf("pool %+v, requests %+v: %v", pool, reqs, err)
		}
	})
}

// decodeGreedyInstance reads a class count, then per class a location
// count (0–16) and a capacity in eighths (0–5.875), then a request count,
// then per request a minimum, a maximum (0 = unbounded), a shape index and
// resources in quarters (0.25–4). Missing bytes read as zero.
func decodeGreedyInstance(data []byte) (Pool, []Request) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[0])
		data = data[1:]
		return b
	}
	classes := make([]Class, 1+next()%12)
	L := 0
	for c := range classes {
		classes[c] = Class{Label: "c", Count: next() % 17, Capacity: float64(next()%48) / 8}
		L += classes[c].Count
	}
	reqs := make([]Request, 1+next()%12)
	for j := range reqs {
		reqs[j] = Request{
			Min:       next() % (L + 2),
			Max:       next() % (L + 2),
			Shape:     greedyShapes[next()%len(greedyShapes)],
			Resources: float64(1+next()%16) / 4,
		}
	}
	return Pool{Classes: classes}, reqs
}

// TestSolveP2PMatchesOracle requires SolveP2P on the location index to
// reproduce the scan-based P2P engine exactly on random federations.
func TestSolveP2PMatchesOracle(t *testing.T) {
	rng := stats.NewRand(16)
	for i := 0; i < 3000; i++ {
		facs := make([]FacilityContribution, 1+rng.Intn(5))
		for fi := range facs {
			pool, reqs := randGreedyInstance(rng)
			facs[fi] = FacilityContribution{
				Name:     fmt.Sprintf("F%d", fi),
				Classes:  pool.Classes[:1+rng.Intn(min(3, len(pool.Classes)))],
				Requests: reqs[:1+rng.Intn(min(4, len(reqs)))],
			}
		}
		got, err := SolveP2P(facs)
		want, werr := solveP2P(facs)
		if err != nil || werr != nil {
			t.Fatalf("instance %d: errors %v, %v", i, err, werr)
		}
		for fi := range facs {
			if math.Float64bits(got.Standalone[fi]) != math.Float64bits(want.Standalone[fi]) ||
				math.Float64bits(got.Federated[fi]) != math.Float64bits(want.Federated[fi]) ||
				math.Float64bits(got.Shares[fi]) != math.Float64bits(want.Shares[fi]) {
				t.Fatalf("instance %d facility %d: standalone/federated/share %v/%v/%v, want %v/%v/%v", i, fi,
					got.Standalone[fi], got.Federated[fi], got.Shares[fi],
					want.Standalone[fi], want.Federated[fi], want.Shares[fi])
			}
			for j := range want.X[fi] {
				if got.X[fi][j] != want.X[fi][j] {
					t.Fatalf("instance %d: X[%d][%d] = %d, want %d", i, fi, j, got.X[fi][j], want.X[fi][j])
				}
			}
		}
	}
}
