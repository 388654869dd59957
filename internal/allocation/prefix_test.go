package allocation

import (
	"math"
	"sync"
	"testing"

	"fedshare/internal/stats"
)

// randFastRequests draws a request list on the Gale–Ryser fast path:
// uniform Resources, Shape 1, unbounded Max, mixed minima (sometimes
// homogeneous, exercising the analytic closed form).
func randFastRequests(rng *stats.Rand) []Request {
	k := 1 + rng.Intn(12)
	r0 := 0.5 + rng.Float64()*2
	reqs := make([]Request, k)
	if rng.Intn(2) == 0 {
		l := rng.Intn(6)
		for j := range reqs {
			reqs[j] = Request{Min: l, Shape: 1, Resources: r0}
		}
		return reqs
	}
	for j := range reqs {
		reqs[j] = Request{Min: rng.Intn(8), Shape: 1, Resources: r0}
	}
	return reqs
}

// randGeneralRequests draws a request list off the fast path: mixed
// shapes, resources, and bounded maxima.
func randGeneralRequests(rng *stats.Rand) []Request {
	shapes := []float64{0.5, 0.8, 1, 1.5, 2}
	k := 1 + rng.Intn(8)
	reqs := make([]Request, k)
	for j := range reqs {
		max := 0
		if rng.Intn(2) == 0 {
			max = 1 + rng.Intn(6)
		}
		reqs[j] = Request{
			Min:       rng.Intn(4),
			Max:       max,
			Shape:     shapes[rng.Intn(len(shapes))],
			Resources: 0.5 + rng.Float64()*2,
		}
	}
	return reqs
}

// randClasses draws a facility class list. With abundant set, every
// class's capacity covers the total resource demand of reqs (the greedy
// repair certificate); otherwise capacities are mixed so some prefixes
// hit the certified repair and others the fallback.
func randClasses(rng *stats.Rand, reqs []Request, abundant bool) []Class {
	sum := 0.0
	for _, r := range reqs {
		sum += r.Resources
	}
	n := 2 + rng.Intn(8)
	classes := make([]Class, n)
	for i := range classes {
		cap := sum * (1 + rng.Float64())
		if !abundant && rng.Intn(2) == 0 {
			cap = rng.Float64() * sum
		}
		count := rng.Intn(5) // 0 allowed: empty classes must be no-ops
		classes[i] = Class{Label: "c", Count: count, Capacity: cap}
	}
	return classes
}

// walkAndCompare walks one random permutation of classes through ps,
// comparing every step against a fresh Solve of the accumulated prefix
// pool. Returns the largest absolute deviation observed.
func walkAndCompare(t *testing.T, ps *PrefixSolver, reqs []Request, classes []Class, rng *stats.Rand, tol float64) float64 {
	t.Helper()
	perm := rng.Perm(len(classes))
	ps.Reset()
	pool := Pool{Classes: make([]Class, 0, len(classes))}
	worst := 0.0
	for step, ci := range perm {
		got := ps.Add(classes[ci])
		pool.Classes = append(pool.Classes, classes[ci])
		want := Solve(pool, reqs).Utility
		diff := math.Abs(got - want)
		if diff > worst {
			worst = diff
		}
		if diff > tol {
			t.Fatalf("step %d (%d classes): PrefixSolver=%g Solve=%g diff=%g > %g",
				step, len(pool.Classes), got, want, diff, tol)
		}
	}
	return worst
}

// TestPrefixSolverDifferentialFastPath walks ≥2000 random permutations of
// fast-path instances and requires exact agreement with a fresh Solve at
// every prefix.
func TestPrefixSolverDifferentialFastPath(t *testing.T) {
	rng := stats.NewRand(7001)
	perms := 0
	var agg PrefixStats
	for trial := 0; perms < 2000; trial++ {
		reqs := randFastRequests(rng)
		classes := randClasses(rng, reqs, false)
		ps, err := NewPrefixSolver(reqs, nil)
		if err != nil {
			t.Fatal(err)
		}
		for w := 0; w < 5; w++ {
			walkAndCompare(t, ps, reqs, classes, rng, 0)
			perms++
		}
		agg = ps.Stats()
		if agg.Fast == 0 {
			t.Fatalf("fast-path instance took no fast steps: %+v", agg)
		}
	}
	t.Logf("fast differential: %d permutations", perms)
}

// TestPrefixSolverDifferentialGeneral walks ≥2000 random permutations of
// general (greedy-engine) instances, requiring agreement within 1e-9 and
// that both the certified repair and the fallback paths were exercised.
func TestPrefixSolverDifferentialGeneral(t *testing.T) {
	rng := stats.NewRand(7002)
	perms := 0
	repaired, fallbacks := int64(0), int64(0)
	for trial := 0; perms < 2000; trial++ {
		reqs := randGeneralRequests(rng)
		classes := randClasses(rng, reqs, trial%2 == 0)
		ps, err := NewPrefixSolver(reqs, nil)
		if err != nil {
			t.Fatal(err)
		}
		for w := 0; w < 5; w++ {
			walkAndCompare(t, ps, reqs, classes, rng, 1e-9)
			perms++
		}
		st := ps.Stats()
		repaired += st.Repaired
		fallbacks += st.Fallbacks
	}
	if repaired == 0 {
		t.Fatal("no step took the certified greedy repair path")
	}
	if fallbacks == 0 {
		t.Fatal("no step took the fallback path")
	}
	t.Logf("general differential: %d permutations, %d repaired, %d fallbacks",
		perms, repaired, fallbacks)
}

// TestPrefixSolverRepairPathExact pins the stronger property the repair
// path actually provides: under the abundant-capacity certificate the
// closed form reproduces solveGreedy bit-for-bit, not just within 1e-9.
func TestPrefixSolverRepairPathExact(t *testing.T) {
	rng := stats.NewRand(7003)
	for trial := 0; trial < 200; trial++ {
		reqs := randGeneralRequests(rng)
		classes := randClasses(rng, reqs, true)
		ps, err := NewPrefixSolver(reqs, nil)
		if err != nil {
			t.Fatal(err)
		}
		walkAndCompare(t, ps, reqs, classes, rng, 0)
		if st := ps.Stats(); st.Fallbacks != 0 {
			t.Fatalf("abundant instance fell back %d times: %+v", st.Fallbacks, st)
		}
	}
}

// TestPrefixSolverMemoReadNoInsert checks the memo interplay: fallback
// steps read the memo but never insert, so a walk cannot grow the table.
func TestPrefixSolverMemoReadNoInsert(t *testing.T) {
	rng := stats.NewRand(7004)
	memo := NewMemo()
	reqs := randGeneralRequests(rng)
	classes := randClasses(rng, reqs, false)
	ps, err := NewPrefixSolver(reqs, memo)
	if err != nil {
		t.Fatal(err)
	}
	var st PrefixStats
	for w := 0; w < 20 && st.Fallbacks == 0; w++ {
		walkAndCompare(t, ps, reqs, classes, rng, 1e-9)
		st = ps.Stats()
	}
	if st.Fallbacks == 0 {
		t.Skip("instance produced no fallback steps")
	}
	if entries := memo.Stats().Entries; entries != 0 {
		t.Fatalf("prefix walk inserted %d memo entries", entries)
	}
	// Warm the memo with the full pool's aggregate key: the final prefix
	// of the next walk must now read it (the class multiset matches
	// regardless of permutation order).
	memo.Solve(Pool{Classes: classes}, reqs)
	before := memo.Stats().Hits
	walkAndCompare(t, ps, reqs, classes, rng, 1e-9)
	if st := ps.Stats(); st.Fallbacks > 0 && memo.Stats().Hits == before {
		t.Fatal("fallback steps never read the warmed memo entry")
	}
}

// TestPrefixSolverStatsAndReset checks the counters and that Reset fully
// clears pool state.
func TestPrefixSolverStatsAndReset(t *testing.T) {
	reqs := []Request{{Min: 1, Shape: 1, Resources: 1}, {Min: 2, Shape: 1, Resources: 1}}
	ps, err := NewPrefixSolver(reqs, nil)
	if err != nil {
		t.Fatal(err)
	}
	ps.Add(Class{Count: 3, Capacity: 2})
	ps.Add(Class{Count: 2, Capacity: 5})
	st := ps.Stats()
	if st.Steps != 2 || st.Fast != 2 {
		t.Fatalf("unexpected stats %+v", st)
	}
	if st.Fallbacks != 0 {
		t.Fatalf("%d fallbacks, want 0", st.Fallbacks)
	}
	v := ps.Value()
	ps.Reset()
	if ps.Value() != 0 {
		t.Fatalf("value %g after Reset, want 0", ps.Value())
	}
	ps.Add(Class{Count: 3, Capacity: 2})
	if got := ps.Add(Class{Count: 2, Capacity: 5}); got != v {
		t.Fatalf("replayed walk gave %g, want %g", got, v)
	}
}

// TestPrefixSolverValidation mirrors Solve's input contract.
func TestPrefixSolverValidation(t *testing.T) {
	bad := [][]Request{
		{{Min: 0, Shape: 1, Resources: 0}},
		{{Min: 0, Shape: 0, Resources: 1}},
		{{Min: -1, Shape: 1, Resources: 1}},
	}
	for i, reqs := range bad {
		if _, err := NewPrefixSolver(reqs, nil); err == nil {
			t.Errorf("case %d: invalid requests accepted", i)
		}
	}
	ps, err := NewPrefixSolver(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v := ps.Add(Class{Count: 3, Capacity: 1}); v != 0 {
		t.Fatalf("empty request list valued %g, want 0", v)
	}
	for _, c := range []Class{{Count: -1, Capacity: 1}, {Count: 1, Capacity: -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("invalid class %+v did not panic", c)
				}
			}()
			ps.Add(c)
		}()
	}
	for name, bad := range map[string]func(){
		"negative slot capacity": func() { ps.SetLayout([]float64{1, -1}) },
		"negative growth":        func() { ps.SetLayout([]float64{1}); ps.Grow(0, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			bad()
		}()
	}
}

// TestPrefixSolverConcurrentWalkers runs independent solvers sharing one
// memo across goroutines — the allocation-level half of the race test
// (run under -race in CI).
func TestPrefixSolverConcurrentWalkers(t *testing.T) {
	memo := NewMemo()
	baseRng := stats.NewRand(7005)
	reqs := randGeneralRequests(baseRng)
	classes := randClasses(baseRng, reqs, false)
	// Warm the memo so walkers exercise the concurrent read path too.
	memo.Solve(Pool{Classes: classes}, reqs)

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := stats.NewRand(seed)
			ps, err := NewPrefixSolver(reqs, memo)
			if err != nil {
				errs <- err
				return
			}
			for walk := 0; walk < 25; walk++ {
				perm := rng.Perm(len(classes))
				ps.Reset()
				pool := Pool{}
				for _, ci := range perm {
					got := ps.Add(classes[ci])
					pool.Classes = append(pool.Classes, classes[ci])
					if want := Solve(pool, reqs).Utility; math.Abs(got-want) > 1e-9 {
						t.Errorf("worker %d: got %g want %g", seed, got, want)
						return
					}
				}
			}
		}(uint64(w + 1))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestPrefixSolverGrowMatchesSolve is the differential test of the
// in-place layout: random slot layouts grown by random sequences, on fast
// and general request lists. Every certified Grow value must equal Solve
// of the non-empty slots in slot order bit for bit, and a step must be
// uncertified exactly when Add, fed the same locations as one class per
// step, falls back. Uncertified steps neither solve nor read the memo.
func TestPrefixSolverGrowMatchesSolve(t *testing.T) {
	rng := stats.NewRand(7006)
	memo := NewMemo()
	var agg PrefixStats
	for trial := 0; trial < 400; trial++ {
		reqs := randFastRequests(rng)
		if trial%2 == 1 {
			reqs = randGeneralRequests(rng)
		}
		layout := randClasses(rng, reqs, trial%4 == 1)
		caps := make([]float64, len(layout))
		for i, c := range layout {
			caps[i] = c.Capacity
		}
		grow, err := NewPrefixSolver(reqs, memo)
		if err != nil {
			t.Fatal(err)
		}
		add, err := NewPrefixSolver(reqs, nil)
		if err != nil {
			t.Fatal(err)
		}
		grow.SetLayout(caps)
		counts := make([]int, len(caps))
		for walk := 0; walk < 3; walk++ {
			grow.Reset()
			add.Reset()
			clear(counts)
			for step := 0; step < 3*len(caps); step++ {
				i, d := rng.Intn(len(caps)), rng.Intn(4)
				counts[i] += d
				got, ok := grow.Grow(i, d)
				fallbacks := add.Stats().Fallbacks
				addV := add.Add(Class{Count: d, Capacity: caps[i]})
				if fellBack := add.Stats().Fallbacks > fallbacks; ok == fellBack {
					t.Fatalf("trial %d step %d: Grow certified=%v, Add fell back=%v", trial, step, ok, fellBack)
				}
				if !ok {
					if !math.IsNaN(got) || !math.IsNaN(grow.Value()) {
						t.Fatalf("trial %d step %d: uncertified Grow reported %g, Value %g", trial, step, got, grow.Value())
					}
					continue
				}
				var pool Pool
				for s, c := range counts {
					if c > 0 {
						pool.Classes = append(pool.Classes, Class{Count: c, Capacity: caps[s]})
					}
				}
				if want := Solve(pool, reqs).Utility; got != want || addV != want || grow.Value() != want {
					t.Fatalf("trial %d step %d: Grow %.17g, Add %.17g, Solve %.17g", trial, step, got, addV, want)
				}
			}
		}
		st := grow.Stats()
		agg.Steps += st.Steps
		agg.Fast += st.Fast
		agg.Repaired += st.Repaired
		agg.Fallbacks += st.Fallbacks
	}
	if agg.Fast == 0 || agg.Repaired == 0 || agg.Fallbacks == 0 {
		t.Fatalf("every step kind must occur: %+v", agg)
	}
	if ms := memo.Stats(); ms.Hits+ms.Misses != 0 {
		t.Fatalf("Grow consulted the memo: %+v", ms)
	}
	t.Logf("grow differential: %+v", agg)
}
