package core

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"fedshare/internal/allocation"
	"fedshare/internal/coalition"
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

// walkCaseModel builds a federation of n distinct facilities — 2–10
// locations, 1–5 resources per location, every facility listed in zero
// left without locations — against the given demand classes.
func walkCaseModel(t *testing.T, n int, zero []int, demand ...economics.DemandClass) *Model {
	t.Helper()
	wl, err := economics.NewWorkload(demand...)
	if err != nil {
		t.Fatal(err)
	}
	fs := make([]Facility, n)
	for i := range fs {
		fs[i] = Facility{Name: fmt.Sprintf("W%02d", i), Locations: 2 + i%9, Resources: float64(1 + i%5)}
	}
	for _, i := range zero {
		fs[i].Locations = 0
	}
	m, err := NewModel(fs, wl)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// walkDemand is a demand class of count experiments with the given
// minimum, maximum and shape, one resource each.
func walkDemand(name string, count int, min, max, shape float64) economics.DemandClass {
	return economics.DemandClass{Type: economics.ExperimentType{
		Name: name, MinLocations: min, MaxLocations: max, Resources: 1, HoldingTime: 1, Shape: shape,
	}, Count: count}
}

// stepValuer forwards only Reset and Extend, hiding a valuer's batch Walk
// as a timing wrapper does.
type stepValuer struct{ coalition.PrefixValuer }

// TestModelPrefixValuerMatchesValueMembers walks random permutations,
// forward and reversed, through Model.PrefixValuer's batch Walk and
// through an Extend per step behind a wrapper that hides Walk. At every
// prefix both must equal ValueMembers bit for bit, and both paths must
// move the process prefix counters alike. The cases cover the fast path
// with homogeneous minima (l = 0 and l above the pool included) and
// heterogeneous ones, a Max that binds mid-walk, nonlinear demand where
// every step falls back, and zero-location facilities. Overlap models
// hand out no valuer (TestModelPrefixValuerNilForOverlap);
// TestApproxIncrementalEquivalence samples one on every walker path.
func TestModelPrefixValuerMatchesValueMembers(t *testing.T) {
	inf := math.Inf(1)
	cases := []struct {
		name string
		m    *Model
		// fallbacks: "none", "some" (the fast path turns off part-way) or
		// "all" steps.
		fallbacks string
	}{
		{"homogeneous", walkCaseModel(t, 30, nil, walkDemand("b", 40, 10, inf, 1)), "none"},
		{"homogeneous µ=0.85", func() *Model {
			m := walkCaseModel(t, 30, nil, walkDemand("b", 40, 10, inf, 1))
			m.Mu = 0.85
			return m
		}(), "none"},
		{"homogeneous l=0", walkCaseModel(t, 30, nil, walkDemand("b", 40, 0, inf, 1)), "none"},
		{"homogeneous l above pool", walkCaseModel(t, 30, nil, walkDemand("b", 40, 1000, inf, 1)), "none"},
		{"heterogeneous minima", walkCaseModel(t, 30, nil,
			walkDemand("small", 20, 5, inf, 1), walkDemand("large", 15, 40, inf, 1)), "none"},
		{"max binds mid-walk", walkCaseModel(t, 30, nil, walkDemand("b", 20, 4, 60, 1)), "some"},
		{"nonlinear", walkCaseModel(t, 16, []int{3, 9}, walkDemand("b", 10, 2, 6, 0.8)), "all"},
		{"zero-location facilities", walkCaseModel(t, 30, []int{0, 4, 5, 17, 29}, walkDemand("b", 40, 10, inf, 1)), "none"},
		{"fast", heteroModel(t, 14, 5), "none"},
		{"greedy", greedyModel(t, 14), "some"},
	}
	rng := stats.NewRand(31)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := tc.m
			pv := m.PrefixValuer()
			batch, ok := pv.(interface {
				Walk(perm []int, vals []float64)
			})
			if !ok {
				t.Fatal("the model's valuer has no batch Walk")
			}
			step := stepValuer{m.PrefixValuer()}
			n := m.N()
			vals := make([]float64, n)
			var batchSteps, batchFallbacks, stepSteps, stepFallbacks int64
			for walk := 0; walk < 30; walk++ {
				perm := rng.Perm(n)
				for _, rev := range []bool{false, true} {
					order := perm
					if rev {
						order = slices.Clone(perm)
						slices.Reverse(order)
					}
					s0, f0 := allocation.PrefixCounters()
					batch.Walk(order, vals)
					pv.Reset() // publish the walk's counters
					s1, f1 := allocation.PrefixCounters()
					step.Reset()
					for k, p := range order {
						members := perm[:k+1]
						if rev {
							members = perm[n-1-k:]
						}
						got := step.Extend(p)
						want := m.ValueMembers(members)
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("walk %d rev=%v prefix %d: Extend %.17g, ValueMembers %.17g", walk, rev, k+1, got, want)
						}
						if math.Float64bits(vals[k]) != math.Float64bits(want) {
							t.Fatalf("walk %d rev=%v prefix %d: Walk %.17g, ValueMembers %.17g", walk, rev, k+1, vals[k], want)
						}
					}
					step.Reset()
					s2, f2 := allocation.PrefixCounters()
					batchSteps, batchFallbacks = batchSteps+s1-s0, batchFallbacks+f1-f0
					stepSteps, stepFallbacks = stepSteps+s2-s1, stepFallbacks+f2-f1
				}
			}
			if batchSteps != stepSteps || batchFallbacks != stepFallbacks {
				t.Fatalf("counters: Walk %d steps / %d fallbacks, Extend %d / %d",
					batchSteps, batchFallbacks, stepSteps, stepFallbacks)
			}
			var fellBack bool
			switch tc.fallbacks {
			case "none":
				fellBack = batchFallbacks != 0
			case "some":
				fellBack = batchFallbacks == 0 || batchFallbacks == batchSteps
			case "all":
				fellBack = batchFallbacks != batchSteps
			}
			if fellBack || batchSteps == 0 {
				t.Errorf("%d steps, %d fallbacks; want %s falling back", batchSteps, batchFallbacks, tc.fallbacks)
			}
		})
	}
}

// TestPrefixWalksFallBackOnGreedyModel walks a mixed-shape greedy model
// through Model.PrefixValuer's batch Walk and through an Extend per step:
// every prefix step with locations must fall back to a full solve.
func TestPrefixWalksFallBackOnGreedyModel(t *testing.T) {
	m := walkCaseModel(t, 16, []int{3},
		walkDemand("sublinear", 6, 2, 6, 0.7), walkDemand("superlinear", 4, 3, math.Inf(1), 1.3))
	pv := m.PrefixValuer()
	batch := pv.(interface {
		Walk(perm []int, vals []float64)
	})
	step := stepValuer{m.PrefixValuer()}
	vals := make([]float64, m.N())
	rng := stats.NewRand(37)
	_, f0 := allocation.PrefixCounters()
	for walk := 0; walk < 20; walk++ {
		perm := rng.Perm(m.N())
		batch.Walk(perm, vals)
		step.Reset()
		for _, p := range perm {
			step.Extend(p)
		}
	}
	pv.Reset()
	step.Reset()
	if _, f1 := allocation.PrefixCounters(); f1-f0 < int64(2*20*(m.N()-1)) {
		t.Fatalf("%d fallbacks, want every step with locations to fall back", f1-f0)
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

// TestPrefixEvaluatorNilOnInvalidDemand: when the allocation engine
// refuses the demand (here a request of zero resources, which only a
// workload built without NewWorkload can hold), both sampled games hand
// out no evaluator, as an untyped nil, so their walkers take the
// non-incremental path that reports the error.
func TestPrefixEvaluatorNilOnInvalidDemand(t *testing.T) {
	m, err := NewModel([]Facility{{Name: "A", Locations: 2, Resources: 1}, {Name: "B", Locations: 3, Resources: 1}},
		&economics.Workload{Classes: []economics.DemandClass{{Type: economics.ExperimentType{Name: "bad", Shape: 1}, Count: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if pv := m.PrefixValuer(); pv != nil {
		t.Errorf("PrefixValuer handed out %T on invalid demand", pv)
	}
	if ev := m.ClassStructure().Prefix(); ev != nil {
		t.Errorf("ClassStructure.Prefix handed out %T on invalid demand", ev)
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

// templatedNonlinearModel is a templated federation off the allocation
// fast path: sublinear elastic and superlinear strict demand with mixed
// resources (Σr = 8). Template capacities straddle Σr, so a prefix of
// only abundant replicas takes the certified greedy repair and a prefix
// holding a scarce one is left to the count-vector memo; one template
// contributes no locations.
func templatedNonlinearModel(t testing.TB) *Model {
	t.Helper()
	wl, err := economics.NewWorkload(
		economics.DemandClass{Type: economics.ExperimentType{
			Name: "elastic", MinLocations: 2, MaxLocations: 6,
			Resources: 1, HoldingTime: 1, Shape: 0.8,
		}, Count: 4},
		economics.DemandClass{Type: economics.ExperimentType{
			Name: "strict", MinLocations: 3, MaxLocations: math.Inf(1),
			Resources: 2, HoldingTime: 1, Shape: 1.3,
		}, Count: 2},
	)
	if err != nil {
		t.Fatal(err)
	}
	tpls := []struct {
		f    Facility
		mult int
	}{
		{Facility{Locations: 3, Resources: 12}, 6}, // abundant
		{Facility{Locations: 2, Resources: 5}, 4},  // scarce
		{Facility{Locations: 4, Resources: 9}, 5},  // abundant
		{Facility{Locations: 0, Resources: 7}, 3},  // no locations
	}
	var fs []Facility
	for j, tpl := range tpls {
		for r := 0; r < tpl.mult; r++ {
			f := tpl.f
			f.Name = fmt.Sprintf("T%d-%d", j, r)
			fs = append(fs, f)
		}
	}
	m, err := NewModel(fs, wl)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestClassStructurePrefixWalk walks the collapsed game's PrefixValuer
// over random orderings through its batch Walk and requires every prefix
// value to equal cs.Value of the prefix's count vector bit for bit. On a
// linear templated model the solver's fast path certifies every step; on
// templatedNonlinearModel a walk's leading steps take the certified repair
// and the rest the count-vector memo. Concurrent walkers share one game,
// and so one memo (meaningful under -race).
func TestClassStructurePrefixWalk(t *testing.T) {
	models := map[string]*Model{
		"linear":    heteroModel(t, 24, 4),
		"nonlinear": templatedNonlinearModel(t),
	}
	for name, m := range models {
		cs := m.ClassStructure()
		var mu sync.Mutex
		var evs []*prefixEvaluator
		inner := cs.Prefix
		cs.Prefix = func() coalition.ClassPrefix {
			ev := inner()
			mu.Lock()
			evs = append(evs, ev.(*prefixEvaluator))
			mu.Unlock()
			return ev
		}
		pg := cs.MemberGame().(coalition.PrefixGame)
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(seed uint64) {
				defer wg.Done()
				rng := stats.NewRand(seed)
				pv := pg.PrefixValuer().(interface {
					Walk(perm []int, vals []float64)
				})
				counts := make([]int, cs.K())
				vals := make([]float64, cs.N())
				for walk := 0; walk < 25; walk++ {
					perm := rng.Perm(cs.N())
					pv.Walk(perm, vals)
					clear(counts)
					for k, p := range perm {
						counts[cs.ClassOf[p]]++
						if want := cs.Value(counts); vals[k] != want {
							t.Errorf("%s worker %d walk %d prefix %d: walked %.17g, Value(%v) %.17g",
								name, seed, walk, k+1, vals[k], counts, want)
							return
						}
					}
				}
			}(uint64(w + 1))
		}
		wg.Wait()
		var st allocation.PrefixStats
		for _, ev := range evs {
			s := ev.ps.Stats()
			st.Fast += s.Fast
			st.Repaired += s.Repaired
			st.Fallbacks += s.Fallbacks
		}
		switch {
		case name == "linear" && (st.Fast == 0 || st.Repaired+st.Fallbacks != 0):
			t.Errorf("linear: want fast steps only, got %+v", st)
		case name == "nonlinear" && (st.Repaired == 0 || st.Fallbacks == 0):
			t.Errorf("nonlinear: want repaired and uncertified steps, got %+v", st)
		}
	}
}

// randTemplatedModel draws a federation of 2–5 templates of 1–8 replicas
// each against demand. A template has 1–12 locations whose capacity is one
// of caps; with zero set, the first template has none. Templates that
// draw equal parameters are one class of the collapsed game.
func randTemplatedModel(t *testing.T, rng *stats.Rand, zero bool, caps []float64, demand ...economics.DemandClass) *Model {
	t.Helper()
	wl, err := economics.NewWorkload(demand...)
	if err != nil {
		t.Fatal(err)
	}
	var fs []Facility
	for j, k := 0, 2+rng.Intn(4); j < k; j++ {
		f := Facility{Locations: 1 + rng.Intn(12), Resources: caps[rng.Intn(len(caps))]}
		if zero && j == 0 {
			f.Locations = 0
		}
		for r, mult := 0, 1+rng.Intn(8); r < mult; r++ {
			f.Name = fmt.Sprintf("T%d-%d", j, r)
			fs = append(fs, f)
		}
	}
	m, err := NewModel(fs, wl)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestClassStructureWalksMatchValue is the property test of the collapsed
// game's batched walks, over seeded random templated models: linear demand
// with homogeneous and with heterogeneous minima, a Max that starts to bind
// mid-walk, and nonlinear demand on capacities that all cover the total
// resource demand (every step repaired) or straddle it (a walk's tail
// reads the count-vector memo), every other model with a zero-location
// template and µ = 0.85. Every walk of the collapsed valuer's batch Walk,
// forward and reversed, must equal cs.Value of each prefix's count vector
// bit for bit, and the walker's evaluator must count its steps as an
// Extend per step of the same template sequence on a fresh solver does.
func TestClassStructureWalksMatchValue(t *testing.T) {
	inf := math.Inf(1)
	nonlinear := []economics.DemandClass{ // Σr = 8
		walkDemand("elastic", 4, 2, 6, 0.8),
		{Type: economics.ExperimentType{
			Name: "strict", MinLocations: 3, MaxLocations: inf, Resources: 2, HoldingTime: 1, Shape: 1.3,
		}, Count: 2},
	}
	cases := []struct {
		name   string
		caps   []float64
		demand func(rng *stats.Rand) []economics.DemandClass
		want   func(st allocation.PrefixStats) bool
	}{
		{"linear homogeneous minima", []float64{1, 2, 3, 5, 8}, func(rng *stats.Rand) []economics.DemandClass {
			return []economics.DemandClass{walkDemand("b", 20, float64(rng.Intn(16)), inf, 1)}
		}, func(st allocation.PrefixStats) bool { return st.Fast == st.Steps }},
		{"linear heterogeneous minima", []float64{1, 2, 3, 5, 8}, func(rng *stats.Rand) []economics.DemandClass {
			return []economics.DemandClass{walkDemand("small", 10, float64(rng.Intn(6)), inf, 1), walkDemand("large", 8, float64(10+rng.Intn(30)), inf, 1)}
		}, func(st allocation.PrefixStats) bool { return st.Fast == st.Steps }},
		{"max binds mid-walk", []float64{2, 5, 9, 14}, func(rng *stats.Rand) []economics.DemandClass {
			return []economics.DemandClass{walkDemand("b", 12, 4, float64(10+rng.Intn(10)), 1)}
		}, func(st allocation.PrefixStats) bool { return st.Fast > 0 && st.Fast < st.Steps }},
		{"nonlinear abundant", []float64{8, 9, 12, 20}, func(*stats.Rand) []economics.DemandClass {
			return nonlinear
		}, func(st allocation.PrefixStats) bool { return st.Repaired == st.Steps }},
		{"nonlinear scarce", []float64{2, 5, 9, 12}, func(*stats.Rand) []economics.DemandClass {
			return nonlinear
		}, func(st allocation.PrefixStats) bool { return st.Repaired > 0 && st.Fallbacks > 0 }},
	}
	rng := stats.NewRand(41)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var agg allocation.PrefixStats
			for trial := 0; trial < 8; trial++ {
				m := randTemplatedModel(t, rng, trial%2 == 1, tc.caps, tc.demand(rng)...)
				if trial%2 == 1 {
					m.Mu = 0.85
				}
				cs := m.ClassStructure()
				var ev *prefixEvaluator
				inner := cs.Prefix
				cs.Prefix = func() coalition.ClassPrefix {
					ev = inner().(*prefixEvaluator)
					return ev
				}
				pv := cs.MemberGame().(coalition.PrefixGame).PrefixValuer().(interface {
					Walk(perm []int, vals []float64)
				})
				// The per-step reference: template j's class is that of its
				// first facility, as ClassStructure builds it.
				tmpl := make([]allocation.Class, cs.K())
				for p := cs.N() - 1; p >= 0; p-- {
					tmpl[cs.ClassOf[p]] = m.class(p)
				}
				ref := m.newPrefixEvaluator(tmpl)
				counts, vals := make([]int, cs.K()), make([]float64, cs.N())
				for walk := 0; walk < 5; walk++ {
					order := rng.Perm(cs.N())
					for _, rev := range []bool{false, true} {
						if rev {
							slices.Reverse(order)
						}
						pv.Walk(order, vals)
						clear(counts)
						ref.Reset()
						for k, p := range order {
							counts[cs.ClassOf[p]]++
							ref.ps.Extend(cs.ClassOf[p])
							if want := cs.Value(counts); math.Float64bits(vals[k]) != math.Float64bits(want) {
								t.Fatalf("trial %d walk %d rev=%v prefix %d: walked %.17g, Value(%v) %.17g",
									trial, walk, rev, k+1, vals[k], counts, want)
							}
						}
						if got, want := ev.ps.Stats(), ref.ps.Stats(); got != want {
							t.Fatalf("trial %d walk %d rev=%v: batched walks counted %+v, per-step %+v", trial, walk, rev, got, want)
						}
					}
				}
				st := ev.ps.Stats()
				agg.Steps += st.Steps
				agg.Fast += st.Fast
				agg.Repaired += st.Repaired
				agg.Fallbacks += st.Fallbacks
			}
			if agg.Steps == 0 || !tc.want(agg) {
				t.Errorf("step kinds %+v", agg)
			}
			t.Logf("step kinds %+v", agg)
		})
	}
}

// withStructure is a model that reports a given class structure instead of
// building its own, so a test can hand Values an instrumented one.
type withStructure struct {
	*Model
	cs *coalition.ClassStructure
}

func (w withStructure) ClassStructure() *coalition.ClassStructure { return w.cs }

// TestClassStructurePrefixValueCalls pins the mechanism, not only the
// output: with Value wrapped in a call counter, sampling the linear
// templated game never calls Value (the solver certifies every step),
// while the nonlinear one reaches it through the count-vector memo.
func TestClassStructurePrefixValueCalls(t *testing.T) {
	for _, tc := range []struct {
		name      string
		m         *Model
		wantCalls bool
	}{
		{"linear", heteroModel(t, 24, 4), false},
		{"nonlinear", templatedNonlinearModel(t), true},
	} {
		cs := tc.m.ClassStructure()
		var calls atomic.Int64
		inner := cs.Value
		cs.Value = func(counts []int) float64 {
			calls.Add(1)
			return inner(counts)
		}
		res, err := coalition.Values(withStructure{tc.m, cs}, coalition.Options{
			Method: coalition.MethodApprox, Samples: 96, Seed: 42,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Method != coalition.EngineApproxCollapsed {
			t.Fatalf("%s: engine %q, want %q", tc.name, res.Method, coalition.EngineApproxCollapsed)
		}
		if got := calls.Load() > 0; got != tc.wantCalls {
			t.Errorf("%s: %d Value calls, want calls=%v", tc.name, calls.Load(), tc.wantCalls)
		}
	}
}

// TestApproxPrefixCountersExact checks that the process-wide prefix
// counters see every walked step at any worker count, the last walk of
// each worker included: Samples × n steps for a distinct model walked
// through Model.PrefixValuer and for a templated one walked through the
// collapsed game's solver, with no fallbacks on either (linear demand).
func TestApproxPrefixCountersExact(t *testing.T) {
	models := map[string]*Model{
		"distinct":  heteroModel(t, 30, 30),
		"collapsed": heteroModel(t, 30, 3),
	}
	for name, m := range models {
		for _, workers := range []int{1, 2, 4} {
			steps0, fallbacks0 := allocation.PrefixCounters()
			res, err := coalition.Values(m, coalition.Options{Method: coalition.MethodApprox, Samples: 60, Seed: 7, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			steps1, fallbacks1 := allocation.PrefixCounters()
			if got, want := steps1-steps0, int64(res.Samples*m.N()); got != want {
				t.Errorf("%s workers=%d: %d prefix steps counted, want %d (%d samples × %d)",
					name, workers, got, want, res.Samples, m.N())
			}
			if d := fallbacks1 - fallbacks0; d != 0 {
				t.Errorf("%s workers=%d: %d fallbacks, want 0", name, workers, d)
			}
		}
	}
}
