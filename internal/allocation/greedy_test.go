package allocation

import (
	"fmt"
	"math"
	"slices"
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

// checkGreedy compares both admission orders and solve, run on the
// given scratch, and solveGreedy against the scan-based oracle.
func checkGreedy(s *greedyScratch, pool Pool, reqs []Request) error {
	asc, desc := greedyWithOrder(pool, reqs, true), greedyWithOrder(pool, reqs, false)
	got := emptyResult(pool, reqs)
	s.run(got, pool, reqs, true)
	if err := sameResult(got, asc); err != nil {
		return fmt.Errorf("ascending order: %v", err)
	}
	got = emptyResult(pool, reqs)
	s.run(got, pool, reqs, false)
	if err := sameResult(got, desc); err != nil {
		return fmt.Errorf("descending order: %v", err)
	}
	want := asc
	if desc.Utility > asc.Utility {
		want = desc
	}
	if err := sameResult(s.solve(pool, reqs), want); err != nil {
		return fmt.Errorf("solve: %v", err)
	}
	if err := sameResult(solveGreedy(pool, reqs), want); err != nil {
		return fmt.Errorf("solveGreedy: %v", err)
	}
	return nil
}

// greedyShapes are the utility exponents of the random and decoded
// instances: concave, convex, and one so flat that its gain falls to
// 1e-12 after ten locations.
var greedyShapes = []float64{0.5, 0.7, 0.8, 1.3, 1.5, 2, 1e-11}

// randGreedyInstance draws a pool of 1–12 classes with integer,
// fractional and zero capacities, and requests with integer or fractional
// resources, minima from 0 up, bounded or unbounded maxima, and the shapes
// of greedyShapes. Most instances stay below 8 locations per class and 8
// requests, which keeps the scan-based oracle's cost down. One in four is
// large: up to 20 locations per class (so the location count crosses 64
// and 128 and bitsets span several words) and up to 20 requests. One in
// sixteen is wide: 1–3 classes of 40–99 locations and 1–3 requests, whose
// top-up runs cross several words and groups. A request copies the one
// before it one time in five, so that identical requests tie on gain, and
// one instance in four gives every request the first one's minimum, so
// that solve runs one admission order.
func randGreedyInstance(rng *stats.Rand) (Pool, []Request) {
	perClass := func() int { return rng.Intn(8) }
	nc, nr := 1+rng.Intn(12), 1+rng.Intn(7)
	switch rng.Intn(16) {
	case 0:
		perClass = func() int { return 40 + rng.Intn(60) }
		nc, nr = 1+rng.Intn(3), 1+rng.Intn(3)
	case 1, 2, 3, 4:
		perClass = func() int { return rng.Intn(21) }
		nr = 1 + rng.Intn(20)
	}
	classes := make([]Class, nc)
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
		classes[c] = Class{Label: "c", Count: perClass(), Capacity: capacity}
		L += classes[c].Count
	}
	equalMin := rng.Intn(4) == 0
	reqs := make([]Request, nr)
	for j := range reqs {
		if j > 0 && rng.Intn(5) == 0 {
			reqs[j] = reqs[j-1]
			continue
		}
		r := Request{Shape: greedyShapes[rng.Intn(len(greedyShapes))]}
		if rng.Intn(4) > 0 {
			r.Min = rng.Intn(L/2 + 2)
		}
		if equalMin && j > 0 {
			r.Min = reqs[0].Min
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
// benchmark pools, all solved on one scratch.
func TestGreedyMatchesOracle(t *testing.T) {
	rng := stats.NewRand(15)
	s := new(greedyScratch)
	for i := 0; i < 20000; i++ {
		pool, reqs := randGreedyInstance(rng)
		if err := checkGreedy(s, pool, reqs); err != nil {
			t.Fatalf("instance %d (pool %+v, requests %+v): %v", i, pool, reqs, err)
		}
	}
	pool, reqs := scarceInstance()
	if err := checkGreedy(s, pool, reqs); err != nil {
		t.Fatalf("scarce grand pool: %v", err)
	}
	for _, p := range fig5Pools() {
		for i := 1; i <= 25; i++ {
			reqs := []Request{{Min: 600, Shape: float64(i) / 10, Resources: 1}}
			if err := checkGreedy(s, p, reqs); err != nil {
				t.Fatalf("fig5 %d locations, d = %g: %v", p.TotalLocations(), reqs[0].Shape, err)
			}
		}
	}
}

// TestGreedyOneOrderWhenAdmissibleMinsAgree checks solve's shortcut past
// the descending admission order. Each instance's requests share one Min
// m0 ≤ 3, and a pool class of capacity 5 has at least 4 locations, so
// every one of them can be admitted; one to three extra requests have
// other minima. In half the instances no extra can ever be admitted: its
// Min is above its Max, above the pool, or above the locations with room
// for its Resources. Then admissibleSameMin must hold, so solve runs one
// order. In the other half every extra sits on the boundary of
// admissible: its Min is exactly the number of locations with room for it,
// and its Max is that Min or unbounded. Then admissibleSameMin must not
// hold. Either way solve must equal the better of both orders run in
// full, bit for bit (checkGreedy).
func TestGreedyOneOrderWhenAdmissibleMinsAgree(t *testing.T) {
	rng := stats.NewRand(16)
	s := new(greedyScratch)
	caps := []float64{0, 0.5, 1, 2, 3, 5}
	for i := 0; i < 4000; i++ {
		classes := make([]Class, 1+rng.Intn(8))
		L := 0
		for c := range classes {
			classes[c] = Class{Label: "c", Count: 1 + rng.Intn(10), Capacity: caps[rng.Intn(len(caps))]}
			if c == 0 {
				classes[c] = Class{Label: "c", Count: 4 + rng.Intn(7), Capacity: 5}
			}
			L += classes[c].Count
		}
		pool := Pool{Classes: classes}
		room := func(need float64) int {
			n := 0
			for _, c := range classes {
				if c.Capacity+1e-12 >= need {
					n += c.Count
				}
			}
			return n
		}
		m0 := rng.Intn(4)
		reqs := make([]Request, 1+rng.Intn(6))
		for j := range reqs {
			reqs[j] = Request{Min: m0, Shape: greedyShapes[rng.Intn(len(greedyShapes))], Resources: []float64{0.5, 1, 2}[rng.Intn(3)]}
			if rng.Intn(3) == 0 {
				reqs[j].Max = m0 + rng.Intn(L+1)
			}
		}
		never := i%2 == 0
		for e := 1 + rng.Intn(3); e > 0; e-- {
			r := Request{Min: m0 + 1 + rng.Intn(L+2), Shape: greedyShapes[rng.Intn(len(greedyShapes))], Resources: 1}
			switch {
			case !never:
				r.Resources = caps[1+rng.Intn(len(caps)-1)]
				if r.Min = room(r.Resources); rng.Intn(2) == 0 {
					r.Max = r.Min
				}
			case rng.Intn(3) == 0:
				r.Min = max(r.Min, 2)
				r.Max = 1 + rng.Intn(r.Min-1)
			case rng.Intn(2) == 0:
				r.Min = L + 1 + rng.Intn(3)
			default:
				r.Resources = 5 + rng.Float64()
			}
			at := rng.Intn(len(reqs) + 1)
			reqs = slices.Insert(reqs, at, r)
		}
		if one := admissibleSameMin(pool, reqs); one != never {
			t.Fatalf("instance %d: admissibleSameMin %v, want %v\npool %+v\nrequests %+v", i, one, never, classes, reqs)
		}
		if err := checkGreedy(s, pool, reqs); err != nil {
			t.Fatalf("instance %d (pool %+v, requests %+v): %v", i, classes, reqs, err)
		}
	}
}

// TestGreedyScratchReuse solves a seeded sequence of instances on one
// scratch with shapes drawn from more distinct values than it keeps power
// tables for: windows of three shapes evict earlier shapes' tables, one
// request list reads every shape at once, and the first window's shapes
// come back after their tables were evicted.
func TestGreedyScratchReuse(t *testing.T) {
	shapes := []float64{0.3, 0.45, 0.5, 0.6, 0.7, 0.8, 0.9, 1.1, 1.3, 1.5, 2, 2.5}
	if len(shapes) <= 2*powTables {
		t.Fatalf("%d shapes cannot cycle a scratch that keeps %d power tables", len(shapes), powTables)
	}
	rng := stats.NewRand(19)
	s := new(greedyScratch)
	solve := func(phase string, set []float64) {
		t.Helper()
		for i := 0; i < 40; i++ {
			pool, reqs := randGreedyInstance(rng)
			for j := range reqs {
				reqs[j].Shape = set[rng.Intn(len(set))]
			}
			if err := checkGreedy(s, pool, reqs); err != nil {
				t.Fatalf("%s, instance %d (pool %+v, requests %+v): %v", phase, i, pool, reqs, err)
			}
		}
	}
	for w := 0; w+3 <= len(shapes); w += 3 {
		solve(fmt.Sprintf("window %v", shapes[w:w+3]), shapes[w:w+3])
	}
	pool, _ := scarceInstance()
	every := make([]Request, 2*len(shapes))
	for j := range every {
		every[j] = Request{Min: 2 + j%5, Shape: shapes[j%len(shapes)], Resources: float64(1 + j%3)}
	}
	if err := checkGreedy(s, pool, every); err != nil {
		t.Fatalf("every shape in one request list: %v", err)
	}
	solve("first window again", shapes[:3])
	solve("every shape", shapes)
}

// TestGreedyUtilityTables requires every power-table read to equal
// Request.Utility bit for bit, below Min and at x <= 0 included, for
// requests sharing a shape under different minima, while the scratch
// binds one request list after another.
func TestGreedyUtilityTables(t *testing.T) {
	s := new(greedyScratch)
	classes := []Class{{Count: 40, Capacity: 1}}
	for round, shapes := range [][]float64{{0.7, 1.3}, {0.5, 2, 0.7, 1e-13, 3.5, 0.45}, {1.3, 0.7}} {
		var reqs []Request
		for i, d := range shapes {
			reqs = append(reqs, Request{Min: 3 * i, Shape: d, Resources: 1}, Request{Min: 0, Shape: d, Resources: 1})
		}
		s.reset(classes, 40, reqs)
		for x := 41; x >= -1; x-- {
			for j := range reqs {
				got, want := s.utility(j, &reqs[j], x), reqs[j].Utility(x)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("round %d, request %+v: utility(%d) = %v, want %v", round, reqs[j], x, got, want)
				}
			}
		}
	}
}

// TestGreedyTopUpEdges pins the top-up's ways of choosing and dropping a
// request against the oracle: identical requests whose gains tie, so the
// lowest index must win; a gain that starts at or falls to 1e-12; a
// request that reaches its Max; and one retired while others still grow.
func TestGreedyTopUpEdges(t *testing.T) {
	ties := make([]Request, 40)
	for j := range ties {
		ties[j] = Request{Min: 1, Shape: 0.7, Resources: 1}
	}
	cases := []struct {
		name  string
		pool  Pool
		reqs  []Request
		check func(r *Result) error
	}{
		{"ties", Pool{Classes: []Class{{Count: 30, Capacity: 3}, {Count: 13, Capacity: 2}}}, ties,
			func(r *Result) error {
				// 116 slots for 40 requests: the ties decide which 36 get a third.
				for j, x := range r.X {
					want := 3
					if j >= 36 {
						want = 2
					}
					if x != want {
						return fmt.Errorf("X[%d] = %d, want %d", j, x, want)
					}
				}
				return nil
			}},
		{"gain to 1e-12", Pool{Classes: []Class{{Count: 20, Capacity: 3}}},
			[]Request{{Min: 1, Shape: 2e-12, Resources: 1}, {Min: 1, Shape: 1e-13, Resources: 1}, {Min: 1, Shape: 0.6, Resources: 1}},
			func(r *Result) error {
				if r.X[0] != 2 || r.X[1] != 1 {
					return fmt.Errorf("X = %v, want 2 and 1 locations for the flat shapes", r.X)
				}
				return nil
			}},
		{"max", Pool{Classes: []Class{{Count: 20, Capacity: 5}}},
			[]Request{{Min: 1, Max: 3, Shape: 1.5, Resources: 1}, {Min: 2, Max: 7, Shape: 0.8, Resources: 2}, {Min: 1, Shape: 0.5, Resources: 1}},
			func(r *Result) error {
				if r.X[0] != 3 || r.X[1] != 7 {
					return fmt.Errorf("X = %v, want the bounded requests at their Max 3 and 7", r.X)
				}
				return nil
			}},
		{"retired mid top-up", Pool{Classes: []Class{{Count: 4, Capacity: 3}, {Count: 30, Capacity: 1}}},
			[]Request{{Min: 1, Shape: 0.9, Resources: 3}, {Min: 1, Shape: 0.5, Resources: 1}, {Min: 1, Shape: 0.5, Resources: 1}},
			func(r *Result) error {
				if r.X[0] >= 4 || r.X[1]+r.X[2] <= 2*r.X[0] {
					return fmt.Errorf("X = %v, want the heavy request stopped short of 4 while the light ones grow on", r.X)
				}
				return nil
			}},
	}
	for _, c := range cases {
		if err := checkGreedy(new(greedyScratch), c.pool, c.reqs); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if c.check != nil {
			if err := c.check(solveGreedy(c.pool, c.reqs)); err != nil {
				t.Errorf("%s: %v", c.name, err)
			}
		}
	}
}

// TestGreedyRuns pins the top-up's runs, the picks a request makes while
// it stays on top of the heap, against the oracle: one case for each way a
// run ends, runs across several bitset words and groups, runs with no
// runner-up, and solve's one admission order for equal minima.
func TestGreedyRuns(t *testing.T) {
	unit := func(n int) Pool { return Pool{Classes: []Class{{Count: n, Capacity: 1}}} }
	wide := Pool{Classes: []Class{{Count: 70, Capacity: 1}, {Count: 70, Capacity: 2}, {Count: 60, Capacity: 3}}}
	cases := []struct {
		name string
		pool Pool
		reqs []Request
		x    []int // X of the solve, if pinned
	}{
		// Request 0 runs from 2 to 5 locations: at 4 its gain ties
		// request 1's and its lower index keeps it on top.
		{"runner-up higher", unit(10), []Request{{Min: 1, Shape: 0.5, Resources: 1}, {Min: 4, Shape: 0.5, Resources: 1}}, []int{5, 5}},
		// Request 0's run stops at 4 locations for request 2, the top's
		// right child, not at request 1, its left.
		{"runner-up on the right", unit(16), []Request{{Min: 1, Shape: 0.5, Resources: 1}, {Min: 8, Shape: 0.5, Resources: 1},
			{Min: 3, Shape: 0.5, Resources: 1}}, []int{4, 8, 4}},
		// Request 1's run stops at 3 locations, where its gain ties
		// request 0's and the lower index comes first.
		{"tie", unit(7), []Request{{Min: 3, Shape: 0.5, Resources: 1}, {Min: 1, Shape: 0.5, Resources: 1}}, []int{4, 3}},
		{"identical", unit(7), []Request{{Min: 2, Shape: 0.7, Resources: 1}, {Min: 2, Shape: 0.7, Resources: 1}}, []int{4, 3}},
		{"max", unit(12), []Request{{Min: 1, Max: 5, Shape: 1.5, Resources: 1}, {Min: 1, Shape: 0.5, Resources: 1}}, []int{5, 7}},
		// The gain of x^1e-11 falls to 1e-12 at ten locations.
		{"cutoff", unit(20), []Request{{Min: 1, Shape: 1e-11, Resources: 1}}, []int{10}},
		{"cutoff with runner-up", unit(30), []Request{{Min: 1, Shape: 1e-11, Resources: 1}, {Min: 9, Shape: 1e-11, Resources: 1}}, []int{10, 10}},
		{"locations run out", Pool{Classes: []Class{{Count: 10, Capacity: 1}, {Count: 5, Capacity: 0.5}}},
			[]Request{{Min: 1, Shape: 2, Resources: 1}}, []int{10}},
		{"locations run out with runner-up", Pool{Classes: []Class{{Count: 6, Capacity: 2}, {Count: 20, Capacity: 1}}},
			[]Request{{Min: 1, Shape: 2, Resources: 2}, {Min: 1, Shape: 0.5, Resources: 1}}, []int{5, 21}},
		{"words and groups", wide, []Request{{Min: 10, Shape: 1.3, Resources: 1}, {Min: 10, Shape: 0.8, Resources: 2},
			{Min: 40, Shape: 0.5, Resources: 1}}, nil},
		{"alone, concave", wide, []Request{{Min: 5, Shape: 0.5, Resources: 2}}, []int{130}},
		{"alone, convex", wide, []Request{{Min: 5, Shape: 2, Resources: 2}}, []int{130}},
		{"equal minima", wide, []Request{{Min: 30, Shape: 0.5, Resources: 1}, {Min: 30, Shape: 2, Resources: 3},
			{Min: 30, Max: 60, Shape: 1.3, Resources: 2}, {Min: 30, Shape: 0.7, Resources: 0.5}}, nil},
	}
	for _, c := range cases {
		if err := checkGreedy(new(greedyScratch), c.pool, c.reqs); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if c.x == nil {
			continue
		}
		if got := solveGreedy(c.pool, c.reqs).X; !slices.Equal(got, c.x) {
			t.Errorf("%s: X = %v, want %v", c.name, got, c.x)
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
		if err := checkGreedy(new(greedyScratch), pool, reqs); err != nil {
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
