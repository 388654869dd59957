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

// extendWalk takes one Extend step per class of order through ps,
// re-solving each step Extend leaves uncertified, sets vals[n] to V after
// the (n+1)th, and returns the index of the first uncertified step
// (len(order) when every step is certified).
func extendWalk(ps *PrefixSolver, order []int, vals []float64) int {
	ps.Reset()
	first := len(order)
	for n, i := range order {
		v, ok := ps.Extend(i)
		if !ok {
			v = ps.Resolve()
			first = min(first, n)
		}
		vals[n] = v
	}
	return first
}

// walkAndCompare walks one random permutation of classes, the class list
// ps holds, by Extend and by Walk, and requires every step of both to
// equal a fresh Solve of the accumulated prefix pool bit for bit.
func walkAndCompare(t *testing.T, ps *PrefixSolver, reqs []Request, classes []Class, rng *stats.Rand) {
	t.Helper()
	perm := rng.Perm(len(classes))
	walked, extended := make([]float64, len(perm)), make([]float64, len(perm))
	ps.Walk(perm, walked)
	extendWalk(ps, perm, extended)
	pool := Pool{Classes: make([]Class, 0, len(classes))}
	for n, ci := range perm {
		pool.Classes = append(pool.Classes, classes[ci])
		want := Solve(pool, reqs).Utility
		if math.Float64bits(extended[n]) != math.Float64bits(want) || math.Float64bits(walked[n]) != math.Float64bits(want) {
			t.Fatalf("step %d (%d classes): Extend %.17g, Walk %.17g, Solve %.17g",
				n, len(pool.Classes), extended[n], walked[n], want)
		}
	}
}

// newSolver builds a PrefixSolver over classes.
func newSolver(t testing.TB, reqs []Request, classes []Class) *PrefixSolver {
	t.Helper()
	ps, err := NewPrefixSolver(reqs)
	if err != nil {
		t.Fatal(err)
	}
	ps.SetClasses(classes)
	return ps
}

// TestPrefixSolverDifferentialFastPath walks ≥2000 random permutations of
// fast-path instances and requires exact agreement with a fresh Solve at
// every prefix.
func TestPrefixSolverDifferentialFastPath(t *testing.T) {
	rng := stats.NewRand(7001)
	perms, fast := 0, int64(0)
	for trial := 0; perms < 2000; trial++ {
		reqs := randFastRequests(rng)
		classes := randClasses(rng, reqs, false)
		ps := newSolver(t, reqs, classes)
		for w := 0; w < 5; w++ {
			walkAndCompare(t, ps, reqs, classes, rng)
			perms++
		}
		st := ps.Stats()
		if st.Fast != st.Steps {
			t.Fatalf("fast-path instance took steps off the fast path: %+v", st)
		}
		fast += st.Fast
	}
	if fast == 0 {
		t.Fatal("no step took the fast path")
	}
	t.Logf("fast differential: %d permutations, %d fast steps", perms, fast)
}

// TestPrefixSolverDifferentialGeneral walks ≥2000 random permutations of
// general (greedy-engine) instances, requiring exact agreement and that
// both the certified repair and the fallback paths were exercised.
func TestPrefixSolverDifferentialGeneral(t *testing.T) {
	rng := stats.NewRand(7002)
	perms := 0
	repaired, fallbacks := int64(0), int64(0)
	for trial := 0; perms < 2000; trial++ {
		reqs := randGeneralRequests(rng)
		classes := randClasses(rng, reqs, trial%2 == 0)
		ps := newSolver(t, reqs, classes)
		for w := 0; w < 5; w++ {
			walkAndCompare(t, ps, reqs, classes, rng)
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

// TestPrefixSolverRepairPathExact pins the abundant-capacity certificate:
// on instances where every class covers the total resource demand, no
// step falls back, so every value is the closed form's.
func TestPrefixSolverRepairPathExact(t *testing.T) {
	rng := stats.NewRand(7003)
	for trial := 0; trial < 200; trial++ {
		reqs := randGeneralRequests(rng)
		classes := randClasses(rng, reqs, true)
		ps := newSolver(t, reqs, classes)
		walkAndCompare(t, ps, reqs, classes, rng)
		if st := ps.Stats(); st.Fallbacks != 0 {
			t.Fatalf("abundant instance fell back %d times: %+v", st.Fallbacks, st)
		}
	}
}

// TestPrefixSolverStatsAndReset checks the counters, that a class
// without locations is no step, that Reset fully clears pool state, and
// that the solver keeps no hold on Walk's order.
func TestPrefixSolverStatsAndReset(t *testing.T) {
	reqs := []Request{{Min: 1, Shape: 1, Resources: 1}, {Min: 2, Shape: 1, Resources: 1}}
	ps := newSolver(t, reqs, []Class{{Count: 3, Capacity: 2}, {Count: 2, Capacity: 5}, {Count: 0, Capacity: 9}})
	ps.Extend(0)
	v, ok := ps.Extend(1)
	if again, okAgain := ps.Extend(2); again != v || okAgain != ok {
		t.Fatalf("a class without locations moved V from %g (%v) to %g (%v)", v, ok, again, okAgain)
	}
	st := ps.Stats()
	if st.Steps != 2 || st.Fast != 2 || !ok {
		t.Fatalf("unexpected stats %+v (last step certified %v)", st, ok)
	}
	if st.Fallbacks != 0 {
		t.Fatalf("%d fallbacks, want 0", st.Fallbacks)
	}
	ps.Reset()
	if got, ok := ps.Extend(2); got != 0 || !ok {
		t.Fatalf("empty pool after Reset valued %g (certified %v), want 0", got, ok)
	}
	ps.Extend(0)
	if got, _ := ps.Extend(1); got != v {
		t.Fatalf("replayed walk gave %g, want %g", got, v)
	}
	// Walk reads its caller's order and keeps none of it: Extend steps
	// after the next Reset leave the order as it was.
	order := []int{1, 0}
	ps.Walk(order, make([]float64, 2))
	ps.Reset()
	ps.Extend(2)
	ps.Extend(2)
	if order[0] != 1 || order[1] != 0 {
		t.Fatalf("Extend after Walk wrote into the caller's order: %v", order)
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
		if _, err := NewPrefixSolver(reqs); err == nil {
			t.Errorf("case %d: invalid requests accepted", i)
		}
	}
	ps := newSolver(t, nil, []Class{{Count: 3, Capacity: 1}})
	if v, ok := ps.Extend(0); v != 0 || !ok {
		t.Fatalf("empty request list valued %g (certified %v), want 0", v, ok)
	}
	for _, c := range []Class{{Count: -1, Capacity: 1}, {Count: 1, Capacity: -1}, {Count: 1, Capacity: math.NaN()}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("invalid class %+v did not panic", c)
				}
			}()
			ps.SetClasses([]Class{{Count: 1, Capacity: 1}, c})
		}()
	}
}

// TestPrefixSolverConcurrentWalkers runs independent solvers over one
// shared class list across goroutines, by Walk and by Extend — the
// allocation-level half of the race test (run under -race in CI).
func TestPrefixSolverConcurrentWalkers(t *testing.T) {
	baseRng := stats.NewRand(7005)
	reqs := randGeneralRequests(baseRng)
	classes := randClasses(baseRng, reqs, false)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := stats.NewRand(seed)
			ps, err := NewPrefixSolver(reqs)
			if err != nil {
				t.Error(err)
				return
			}
			ps.SetClasses(classes)
			walked, extended := make([]float64, len(classes)), make([]float64, len(classes))
			for walk := 0; walk < 25; walk++ {
				perm := rng.Perm(len(classes))
				ps.Walk(perm, walked)
				extendWalk(ps, perm, extended)
				pool := Pool{}
				for n, ci := range perm {
					pool.Classes = append(pool.Classes, classes[ci])
					if want := Solve(pool, reqs).Utility; walked[n] != want || extended[n] != want {
						t.Errorf("worker %d: Walk %g, Extend %g, Solve %g", seed, walked[n], extended[n], want)
						return
					}
				}
			}
		}(uint64(w + 1))
	}
	wg.Wait()
}

// TestPrefixSolverReplicaWalksMatchSolve is the differential test of the
// collapsed class game's walks: the class list is a random set of
// templates, and a walk extends by random template indices, one replica
// of a template per step. Every certified value must equal Solve of the
// templates' merged classes — replicas × locations each, non-empty ones in
// template order, as the collapsed game's Value builds them — bit for
// bit, on fast and general request lists. Whether a step is certified
// must depend only on the multiset of templates walked: a fresh solver
// extended by the same replicas in template order must agree.
// Uncertified steps never solve: the collapsed game values them. The
// same template sequence through WalkCertified, the collapsed game's
// batched walk, must return the certified values and stop at the first
// uncertified step.
func TestPrefixSolverReplicaWalksMatchSolve(t *testing.T) {
	rng := stats.NewRand(7006)
	var agg PrefixStats
	for trial := 0; trial < 400; trial++ {
		reqs := randFastRequests(rng)
		if trial%2 == 1 {
			reqs = randGeneralRequests(rng)
		}
		tmpl := randClasses(rng, reqs, trial%4 == 1)
		walker, sorted, batch := newSolver(t, reqs, tmpl), newSolver(t, reqs, tmpl), newSolver(t, reqs, tmpl)
		counts := make([]int, len(tmpl))
		seq, vals, batched := make([]int, 3*len(tmpl)), make([]float64, 3*len(tmpl)), make([]float64, 3*len(tmpl))
		for walk := 0; walk < 3; walk++ {
			walker.Reset()
			clear(counts)
			first := len(seq)
			for step := range seq {
				j := rng.Intn(len(tmpl))
				seq[step] = j
				counts[j]++
				got, ok := walker.Extend(j)
				vals[step] = got
				sorted.Reset()
				sortedOK := true
				for i, c := range counts {
					for r := 0; r < c; r++ {
						_, sortedOK = sorted.Extend(i)
					}
				}
				if ok != sortedOK {
					t.Fatalf("trial %d step %d: walk certified=%v, same replicas in template order certified=%v", trial, step, ok, sortedOK)
				}
				if !ok {
					if !math.IsNaN(got) || len(walker.pool) != 0 {
						t.Fatalf("trial %d step %d: uncertified step reported %g and built a pool of %d classes", trial, step, got, len(walker.pool))
					}
					first = min(first, step)
					continue
				}
				var pool Pool
				for i, c := range counts {
					if cl := tmpl[i]; c > 0 && cl.Count > 0 {
						cl.Count *= c
						pool.Classes = append(pool.Classes, cl)
					}
				}
				if want := Solve(pool, reqs).Utility; math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("trial %d step %d: walk %.17g, Solve of the merged classes %.17g", trial, step, got, want)
				}
			}
			if n := batch.WalkCertified(seq, batched); n != first {
				t.Fatalf("trial %d: WalkCertified valued %d steps, Extend certified the first %d", trial, n, first)
			}
			for step := range first {
				if math.Float64bits(batched[step]) != math.Float64bits(vals[step]) {
					t.Fatalf("trial %d step %d: WalkCertified %.17g, Extend %.17g", trial, step, batched[step], vals[step])
				}
			}
		}
		st := walker.Stats()
		agg.Steps += st.Steps
		agg.Fast += st.Fast
		agg.Repaired += st.Repaired
		agg.Fallbacks += st.Fallbacks
	}
	if agg.Fast == 0 || agg.Repaired == 0 || agg.Fallbacks == 0 {
		t.Fatalf("every step kind must occur: %+v", agg)
	}
	t.Logf("replica walks: %+v", agg)
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
// cap, and with a Max that starts to bind mid-walk. Every Extend step,
// re-solved where uncertified, must equal a fresh Solve bit for bit, and
// Walk must return the same values. Each solver is reused across walks,
// and each walk after a Reset must also equal a fresh solver's, step for
// step.
func TestPrefixSolverLongWalks(t *testing.T) {
	rng := stats.NewRand(7007)
	var fastBounded, reachedK, fellBack int
	for _, tc := range longWalkCases(rng) {
		ps := newSolver(t, tc.reqs, tc.classes)
		extended, walked := make([]float64, len(tc.classes)), make([]float64, len(tc.classes))
		var fresh *PrefixSolver // second walk only: ps has been Reset
		for walk := 0; walk < 2; walk++ {
			if walk > 0 {
				ps.Reset()
				fresh = newSolver(t, tc.reqs, tc.classes)
			}
			perm := rng.Perm(len(tc.classes))
			pool := Pool{Classes: make([]Class, 0, len(tc.classes))}
			for step, ci := range perm {
				before := ps.Stats()
				got, ok := ps.Extend(ci)
				if !ok {
					got = ps.Resolve()
				}
				extended[step] = got
				pool.Classes = append(pool.Classes, tc.classes[ci])
				if want := Solve(pool, tc.reqs).Utility; math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s walk %d step %d: PrefixSolver %.17g, Solve %.17g", tc.name, walk, step, got, want)
				}
				if fresh != nil {
					again, ok := fresh.Extend(ci)
					if !ok {
						again = fresh.Resolve()
					}
					if math.Float64bits(again) != math.Float64bits(got) {
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
			ps.Walk(perm, walked)
			for step := range perm {
				if math.Float64bits(walked[step]) != math.Float64bits(extended[step]) {
					t.Fatalf("%s walk %d step %d: Walk %.17g, Extend %.17g", tc.name, walk, step, walked[step], extended[step])
				}
			}
		}
	}
	if fastBounded == 0 || reachedK == 0 || fellBack == 0 {
		t.Fatalf("coverage: %d fast steps under a bounded Max, %d walks admitting all k, %d fallbacks",
			fastBounded, reachedK, fellBack)
	}
}

// FuzzPrefixSolver walks a decoded class sequence, one class per step, by
// Extend, by Walk and by WalkCertified, forward and reversed. Every Extend
// step, re-solved where uncertified, is compared with Solve of the walked
// classes bit for bit. A certified step must also equal Solve of the slot
// pool: each slot's locations so far merged into one class, non-empty
// slots in slot order, as the collapsed class game's Value merges a
// template's replicas. Walk must return the Extend walk's values at every
// step, WalkCertified up to the first step Extend leaves uncertified,
// where it must stop, and both must end with the Extend walk's counters.
func FuzzPrefixSolver(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		reqs, caps, steps := decodePrefixWalk(data)
		classes := make([]Class, len(steps))
		for n, s := range steps {
			classes[n] = Class{Label: "c", Count: s[1], Capacity: caps[s[0]]}
		}
		ps := newSolver(t, reqs, classes)
		var pool Pool
		counts := make([]int, len(caps))
		for n, s := range steps {
			v, ok := ps.Extend(n)
			counts[s[0]] += s[1]
			if ok {
				var slots Pool
				for i, c := range counts {
					if c > 0 {
						slots.Classes = append(slots.Classes, Class{Label: "c", Count: c, Capacity: caps[i]})
					}
				}
				if want := Solve(slots, reqs).Utility; math.Float64bits(v) != math.Float64bits(want) {
					t.Fatalf("step %d: certified %.17g, Solve of the slots %.17g\nrequests %+v\nslots %+v", n, v, want, reqs, slots.Classes)
				}
			} else {
				v = ps.Resolve()
			}
			pool.Classes = append(pool.Classes, classes[n])
			if want := Solve(pool, reqs).Utility; math.Float64bits(v) != math.Float64bits(want) {
				t.Fatalf("step %d: Extend %.17g (certified %v), Solve %.17g\nrequests %+v\npool %+v", n, v, ok, want, reqs, pool.Classes)
			}
		}
		checkWalk(t, reqs, classes)
	})
}

// checkWalk runs Walk and WalkCertified over classes, forward and
// reversed, against an Extend walk in the same order on a third solver:
// Walk's values at every step, WalkCertified's up to the first step
// Extend leaves uncertified, the step count WalkCertified returns and the
// four counters must agree.
func checkWalk(t *testing.T, reqs []Request, classes []Class) {
	t.Helper()
	order := make([]int, len(classes))
	for n := range order {
		order[n] = n
	}
	walk, cert := newSolver(t, reqs, classes), newSolver(t, reqs, classes)
	walked, certified, extended := make([]float64, len(order)), make([]float64, len(order)), make([]float64, len(order))
	for _, rev := range []bool{false, true} {
		if rev {
			slices.Reverse(order)
		}
		ref := newSolver(t, reqs, classes)
		walkBefore, certBefore := walk.Stats(), cert.Stats()
		walk.Walk(order, walked)
		valued := cert.WalkCertified(order, certified)
		first := extendWalk(ref, order, extended)
		if valued != first {
			t.Fatalf("rev=%v: WalkCertified valued %d steps, Extend certified the first %d\nrequests %+v\nclasses %+v", rev, valued, first, reqs, classes)
		}
		for n := range order {
			if math.Float64bits(walked[n]) != math.Float64bits(extended[n]) {
				t.Fatalf("rev=%v step %d: Walk %.17g, Extend %.17g\nrequests %+v\nclasses %+v", rev, n, walked[n], extended[n], reqs, classes)
			}
			if n < first && math.Float64bits(certified[n]) != math.Float64bits(extended[n]) {
				t.Fatalf("rev=%v step %d: WalkCertified %.17g, Extend %.17g\nrequests %+v\nclasses %+v", rev, n, certified[n], extended[n], reqs, classes)
			}
		}
		want := ref.Stats()
		if got := statsSince(walk, walkBefore); got != want {
			t.Fatalf("rev=%v: Walk counters %+v, Extend counters %+v", rev, got, want)
		}
		if got := statsSince(cert, certBefore); got != want {
			t.Fatalf("rev=%v: WalkCertified counters %+v, Extend counters %+v", rev, got, want)
		}
	}
}

// statsSince returns the counts ps has added since it read before.
func statsSince(ps *PrefixSolver, before PrefixStats) PrefixStats {
	after := ps.Stats()
	return PrefixStats{
		Steps: after.Steps - before.Steps, Fast: after.Fast - before.Fast,
		Repaired: after.Repaired - before.Repaired, Fallbacks: after.Fallbacks - before.Fallbacks,
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
