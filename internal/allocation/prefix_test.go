package allocation

import (
	"math"
	"slices"
	"sync"
	"testing"

	"fedshare/internal/stats"
)

// randFastRequests draws a request list on the Gale–Ryser fast path:
// uniform Resources, Shape 1, unbounded Max, mixed minima (sometimes
// homogeneous, exercising the carried admission count).
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
		{{Min: 0, Shape: math.NaN(), Resources: 1}},
		{{Min: 0, Shape: math.Inf(1), Resources: 1}},
		{{Min: 0, Shape: 1, Resources: math.NaN()}},
		{{Min: 0, Shape: 1, Resources: math.Inf(1)}},
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

// longWalkCase is one request list of TestPrefixSolverLongWalks with the
// class list its walks permute.
type longWalkCase struct {
	name    string
	reqs    []Request
	classes []Class
}

// longWalkCases draws request lists of 20–150 uniform-resource linear
// requests and 100–300 classes, most of capacity below 6 experiments
// so that m* climbs through 0..k over a walk, and about one in ten at or
// past the k cap. Minima are homogeneous (l drawn, or 0) or mixed with
// some zeros. One case in three (k ≤ 60, 60–100 classes) bounds Max at
// two thirds of the walk's locations, so the fast path applies for most
// of a walk and then stops.
func longWalkCases(rng *stats.Rand) []longWalkCase {
	var out []longWalkCase
	for trial := 0; trial < 12; trial++ {
		bounded, hetero := trial%3 == 2, trial%2 == 1
		k := 20 + rng.Intn(131)
		if bounded {
			k = 20 + rng.Intn(41) // steps past the bound re-solve with the greedy
		}
		r0 := 0.5 + rng.Float64()
		l := 0
		if trial%6 != 0 {
			l = 1 + rng.Intn(30)
		}
		reqs := make([]Request, k)
		for j := range reqs {
			min := l
			if hetero {
				min = rng.Intn(60)
				if rng.Intn(4) == 0 {
					min = 0
				}
			}
			reqs[j] = Request{Min: min, Shape: 1, Resources: r0}
		}
		n := 100 + rng.Intn(201)
		switch {
		case bounded:
			n = 60 + rng.Intn(41)
		case hetero:
			n = 100 + rng.Intn(51) // Solve's admission replay is O(k²) per prefix
		}
		classes := make([]Class, n)
		total := 0
		for i := range classes {
			b := rng.Float64() * 6
			if rng.Intn(10) == 0 {
				b = float64(k-2) + rng.Float64()*20
			}
			classes[i] = Class{Label: "c", Count: rng.Intn(5), Capacity: b * r0}
			total += classes[i].Count
		}
		name := "homog"
		if hetero {
			name = "hetero"
		} else if l == 0 {
			name = "zero-min"
		}
		if bounded {
			for j := range reqs {
				if j == 0 || rng.Intn(3) == 0 {
					reqs[j].Max = total * 2 / 3
				}
			}
			name += "/max-binds"
		}
		out = append(out, longWalkCase{name: name, reqs: reqs, classes: classes})
	}
	return out
}

// TestPrefixSolverLongWalks walks hundreds of classes against up to 150
// requests, so the admitted count moves through most of 0..k within one
// walk — on both minima kinds, with l = 0, with capacities past the k
// cap, and with a Max that starts to bind mid-walk. Every step must equal
// a fresh Solve bit for bit. Each solver is reused across walks, and each
// walk after a Reset must also equal a fresh solver's, step for step.
func TestPrefixSolverLongWalks(t *testing.T) {
	rng := stats.NewRand(7007)
	var fastBounded, reachedK, fellBack int
	for _, tc := range longWalkCases(rng) {
		ps, err := NewPrefixSolver(tc.reqs, nil)
		if err != nil {
			t.Fatal(err)
		}
		var fresh *PrefixSolver // second walk only: ps has been Reset
		for walk := 0; walk < 2; walk++ {
			if walk > 0 {
				ps.Reset()
				if fresh, err = NewPrefixSolver(tc.reqs, nil); err != nil {
					t.Fatal(err)
				}
			}
			pool := Pool{Classes: make([]Class, 0, len(tc.classes))}
			for step, ci := range rng.Perm(len(tc.classes)) {
				c := tc.classes[ci]
				before := ps.Stats()
				got := ps.Add(c)
				pool.Classes = append(pool.Classes, c)
				if want := Solve(pool, tc.reqs).Utility; math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s walk %d step %d: PrefixSolver %.17g, Solve %.17g", tc.name, walk, step, got, want)
				}
				if fresh != nil {
					if again := fresh.Add(c); math.Float64bits(again) != math.Float64bits(got) {
						t.Fatalf("%s step %d: after Reset %.17g, fresh solver %.17g", tc.name, step, got, again)
					}
				}
				after := ps.Stats()
				if after.Fast > before.Fast && tc.reqs[0].Max > 0 {
					fastBounded++
				}
				if after.Fallbacks > before.Fallbacks {
					fellBack++
				}
			}
			if ps.homogMin >= 0 && ps.fast.m == ps.k {
				reachedK++
			}
		}
	}
	if fastBounded == 0 || reachedK == 0 || fellBack == 0 {
		t.Fatalf("coverage: %d fast steps under a bounded Max, %d walks admitting all k, %d fallbacks",
			fastBounded, reachedK, fellBack)
	}
}

// FuzzPrefixSolver walks a decoded class sequence by Add, by Grow on a
// slot layout and by Walk, forward and reversed. Add is compared with
// Solve at every step, bit for bit. Grow is checked on certified steps,
// and a step must be uncertified exactly when Add falls back. Walk must
// return, at every step, the value of an Add walk over the same classes
// with locations in the same order, and end with the same counters.
func FuzzPrefixSolver(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		reqs, caps, steps := decodePrefixWalk(data)
		checkWalk(t, reqs, caps, steps)
		add, err := NewPrefixSolver(reqs, nil)
		if err != nil {
			t.Fatal(err)
		}
		grow, err := NewPrefixSolver(reqs, nil)
		if err != nil {
			t.Fatal(err)
		}
		grow.SetLayout(caps)
		var pool Pool
		counts := make([]int, len(caps))
		for n, s := range steps {
			c := Class{Label: "c", Count: s[1], Capacity: caps[s[0]]}
			fallbacks := add.Stats().Fallbacks
			got := add.Add(c)
			pool.Classes = append(pool.Classes, c)
			if want := Solve(pool, reqs).Utility; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("step %d: Add %.17g, Solve %.17g\nrequests %+v\npool %+v", n, got, want, reqs, pool.Classes)
			}
			counts[s[0]] += s[1]
			v, ok := grow.Grow(s[0], s[1])
			if fellBack := add.Stats().Fallbacks > fallbacks; ok == fellBack {
				t.Fatalf("step %d: Grow certified=%v, Add fell back=%v", n, ok, fellBack)
			}
			if !ok {
				continue
			}
			var slots Pool
			for i, c := range counts {
				if c > 0 {
					slots.Classes = append(slots.Classes, Class{Label: "c", Count: c, Capacity: caps[i]})
				}
			}
			if want := Solve(slots, reqs).Utility; math.Float64bits(v) != math.Float64bits(want) {
				t.Fatalf("step %d: Grow %.17g, Solve %.17g\nrequests %+v\nslots %+v", n, v, want, reqs, slots.Classes)
			}
		}
	})
}

// checkWalk runs the decoded walk through Walk, forward and reversed,
// against an Add walk over the same classes that skips those without
// locations.
func checkWalk(t *testing.T, reqs []Request, caps []float64, steps [][2]int) {
	t.Helper()
	classes := make([]Class, len(steps))
	order := make([]int, len(steps))
	for n, s := range steps {
		classes[n] = Class{Label: "c", Count: s[1], Capacity: caps[s[0]]}
		order[n] = n
	}
	walk, err := NewPrefixSolver(reqs, nil)
	if err != nil {
		t.Fatal(err)
	}
	walk.SetClasses(classes)
	vals := make([]float64, len(order))
	for _, rev := range []bool{false, true} {
		if rev {
			slices.Reverse(order)
		}
		ref, err := NewPrefixSolver(reqs, nil)
		if err != nil {
			t.Fatal(err)
		}
		before := walk.Stats()
		walk.Walk(order, vals)
		for n := range order {
			c := classes[order[n]]
			want := ref.Value()
			if c.Count > 0 {
				want = ref.Add(c)
			}
			if math.Float64bits(vals[n]) != math.Float64bits(want) {
				t.Fatalf("rev=%v step %d: Walk %.17g, Add %.17g\nrequests %+v\nclasses %+v", rev, n, vals[n], want, reqs, classes)
			}
		}
		after := walk.Stats()
		got := PrefixStats{
			Steps: after.Steps - before.Steps, Fast: after.Fast - before.Fast,
			Repaired: after.Repaired - before.Repaired, Fallbacks: after.Fallbacks - before.Fallbacks,
		}
		if want := ref.Stats(); got != want {
			t.Fatalf("rev=%v: Walk counters %+v, Add counters %+v", rev, got, want)
		}
	}
}

// decodePrefixWalk reads a flags byte, a request count (1–24) and per
// request a minimum (0–23), a maximum (0 = unbounded, up to 47), a shape
// index and resources in quarters; then a slot count (1–8) with a
// capacity per slot in quarters (0–63.75, past the k cap for small
// resources); then up to 32 (slot, locations 0–6) steps. Flags bit 0
// forces uniform resources and Shape 1, the fast path's demand; bit 1
// gives every request the first one's minimum; bit 2 leaves every Max
// unbounded. Missing bytes read as zero.
func decodePrefixWalk(data []byte) (reqs []Request, caps []float64, steps [][2]int) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[0])
		data = data[1:]
		return b
	}
	flags := next()
	reqs = make([]Request, 1+next()%24)
	for j := range reqs {
		reqs[j] = Request{
			Min:       next() % 24,
			Max:       next() % 48,
			Shape:     greedyShapes[next()%len(greedyShapes)],
			Resources: float64(1+next()%16) / 4,
		}
		if flags&1 != 0 {
			reqs[j].Shape, reqs[j].Resources = 1, reqs[0].Resources
		}
		if flags&2 != 0 {
			reqs[j].Min = reqs[0].Min
		}
		if flags&4 != 0 {
			reqs[j].Max = 0
		}
	}
	caps = make([]float64, 1+next()%8)
	for i := range caps {
		caps[i] = float64(next()) / 4
	}
	for len(data) > 0 && len(steps) < 32 {
		steps = append(steps, [2]int{next() % len(caps), next() % 7})
	}
	return reqs, caps, steps
}
