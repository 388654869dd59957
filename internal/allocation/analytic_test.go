package allocation

import (
	"math/rand"
	"reflect"
	"testing"
)

// randomAnalyticInstance draws a random instance from the analytic domain:
// a pool of up to four classes and a homogeneous batch of linear requests.
func randomAnalyticInstance(rng *rand.Rand) (Pool, []Request) {
	nc := 1 + rng.Intn(4)
	caps := []float64{0.5, 1, 1, 2, 3, 80} // duplicates exercise sort ties
	var pool Pool
	for c := 0; c < nc; c++ {
		pool.Classes = append(pool.Classes, Class{
			Label:    "c",
			Count:    rng.Intn(31),
			Capacity: caps[rng.Intn(len(caps))],
		})
	}
	k := 1 + rng.Intn(40)
	l := rng.Intn(pool.TotalLocations() + 5) // sometimes beyond the pool
	res := []float64{0.5, 1, 2}[rng.Intn(3)]
	maxLoc := 0 // unbounded
	if rng.Intn(4) == 0 {
		maxLoc = pool.TotalLocations() + rng.Intn(10) // non-binding bound
	}
	reqs := make([]Request, k)
	for j := range reqs {
		reqs[j] = Request{Min: l, Max: maxLoc, Shape: 1, Resources: res}
	}
	return pool, reqs
}

// analyticApplies is the domain of the closed-form oracle.
func analyticApplies(pool Pool, reqs []Request) bool {
	return fastApplies(pool, reqs) && analyticEligible(pool, reqs)
}

// TestSolveAnalyticMatchesFastOracle verifies the closed-form engine against
// the full solveFast admission loop on 2000 randomized eligible instances:
// the two must agree exactly (==, not within tolerance) on every Result
// field, because they share the distribution tail.
func TestSolveAnalyticMatchesFastOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(20260806))
	for trial := 0; trial < 2000; trial++ {
		pool, reqs := randomAnalyticInstance(rng)
		if !analyticApplies(pool, reqs) {
			t.Fatalf("trial %d: instance unexpectedly outside analytic domain", trial)
		}
		want := solveFast(pool, reqs)
		got := solveAnalytic(pool, reqs)
		if got.Utility != want.Utility {
			t.Fatalf("trial %d: utility %v != oracle %v (pool %+v, K=%d, l=%d, r=%g)",
				trial, got.Utility, want.Utility, pool.Classes, len(reqs), reqs[0].Min, reqs[0].Resources)
		}
		if !reflect.DeepEqual(got.X, want.X) {
			t.Fatalf("trial %d: X %v != oracle %v", trial, got.X, want.X)
		}
		if !reflect.DeepEqual(got.ConsumedByClass, want.ConsumedByClass) {
			t.Fatalf("trial %d: consumption %v != oracle %v", trial, got.ConsumedByClass, want.ConsumedByClass)
		}
		if !reflect.DeepEqual(got.SlotsByClass, want.SlotsByClass) {
			t.Fatalf("trial %d: slots %v != oracle %v", trial, got.SlotsByClass, want.SlotsByClass)
		}
	}
}

// TestSolveDispatchesAnalytic checks that Solve matches the closed-form
// oracle on a homogeneous batch, and that mixed minima and d ≠ 1 stay
// outside the oracle's domain.
func TestSolveDispatchesAnalytic(t *testing.T) {
	pool := Pool{Classes: []Class{
		{Label: "a", Count: 10, Capacity: 2},
		{Label: "b", Count: 5, Capacity: 1},
	}}
	reqs := make([]Request, 12)
	for j := range reqs {
		reqs[j] = Request{Min: 3, Shape: 1, Resources: 1}
	}
	if !analyticApplies(pool, reqs) {
		t.Fatal("homogeneous batch should be analytic-eligible")
	}
	got := Solve(pool, reqs)
	want := solveAnalytic(pool, reqs)
	if got.Utility != want.Utility || !reflect.DeepEqual(got.X, want.X) {
		t.Fatalf("Solve %+v != solveAnalytic %+v", got, want)
	}

	// Heterogeneous minima: eligible for solveFast, not for the closed form.
	mixed := append(append([]Request(nil), reqs...), Request{Min: 5, Shape: 1, Resources: 1})
	if analyticApplies(pool, mixed) {
		t.Fatal("mixed minima must not be analytic-eligible")
	}
	// Nonlinear shape: not even fast-eligible.
	curved := []Request{{Min: 2, Shape: 1.2, Resources: 1}, {Min: 2, Shape: 1.2, Resources: 1}}
	if analyticApplies(pool, curved) {
		t.Fatal("d != 1 must not be analytic-eligible")
	}
	if got := Solve(pool, mixed); len(got.X) != len(mixed) {
		t.Fatal("dispatch for mixed instance failed")
	}
}

// TestSolveAnalyticEdgeCases pins the closed-form admission boundaries.
func TestSolveAnalyticEdgeCases(t *testing.T) {
	pool := Pool{Classes: []Class{{Label: "a", Count: 4, Capacity: 2}}}
	mk := func(k, l int) []Request {
		reqs := make([]Request, k)
		for j := range reqs {
			reqs[j] = Request{Min: l, Shape: 1, Resources: 1}
		}
		return reqs
	}
	// Threshold beyond the pool: everything rejected.
	if got := solveAnalytic(pool, mk(3, 5)); got.Utility != 0 {
		t.Fatalf("l > L must yield 0, got %g", got.Utility)
	}
	// Zero threshold: admission limited by per-location capacity n = 2.
	if got := solveAnalytic(pool, mk(10, 0)); got.Utility != solveFast(pool, mk(10, 0)).Utility {
		t.Fatalf("l = 0 mismatch: %g", got.Utility)
	}
	// Saturating threshold: m·l ≤ totalSlots(m) binds.
	if got, want := solveAnalytic(pool, mk(10, 4)), solveFast(pool, mk(10, 4)); got.Utility != want.Utility {
		t.Fatalf("binding l mismatch: %g != %g", got.Utility, want.Utility)
	}
	// Empty pool.
	empty := Pool{}
	if got := solveAnalytic(empty, mk(2, 0)); got.Utility != 0 {
		t.Fatalf("empty pool must yield 0, got %g", got.Utility)
	}
}
