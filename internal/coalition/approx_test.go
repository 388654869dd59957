package coalition

import (
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"fedshare/internal/combin"
	"fedshare/internal/stats"
)

// randomTable builds a random monotone game on n players as a dense Table:
// V(S∪{i}) = V(S) + positive random increment, mimicking the federation
// games' monotone structure while exercising arbitrary heterogeneity.
func randomMonotoneTable(t *testing.T, n int, seed uint64) *Table {
	t.Helper()
	rng := stats.NewRand(seed)
	values := make([]float64, 1<<uint(n))
	for m := 1; m < len(values); m++ {
		// Remove the lowest set bit to find a predecessor.
		prev := m & (m - 1)
		values[m] = values[prev] + rng.Float64()
	}
	tab, err := NewTable(n, values)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// sumWeightGame is a cheap synthetic MemberGame on any n:
// V(S) = (Σ_{i∈S} w_i)^0.7 — concave, monotone, heterogeneous.
func sumWeightGame(n int, seed uint64) (MemberFunc, []float64) {
	rng := stats.NewRand(seed)
	w := make([]float64, n)
	for i := range w {
		w[i] = 0.5 + rng.Float64()
	}
	g := MemberFunc{Players: n, V: func(members []int) float64 {
		total := 0.0
		for _, p := range members {
			total += w[p]
		}
		return math.Pow(total, 0.7)
	}}
	return g, w
}

func TestApproxShapleyMatchesKernelSmallN(t *testing.T) {
	for _, n := range []int{3, 5, 8, 12} {
		tab := randomMonotoneTable(t, n, uint64(100+n))
		exact := BatchedValues(tab, 1).Shapley
		res, err := approxShapley(tableGame{tab}, Options{Samples: 20000, Seed: 7}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range exact {
			// 5× the 95% half-width is ~10 standard errors: the seeded
			// run is deterministic, so this cannot flake, and a real
			// estimator bug blows well past it.
			tol := 5*res.CIHalf[i] + 1e-9
			if diff := math.Abs(res.Phi[i] - exact[i]); diff > tol {
				t.Errorf("n=%d player %d: approx %.6f vs exact %.6f (diff %.2g > tol %.2g)",
					n, i, res.Phi[i], exact[i], diff, tol)
			}
		}
	}
}

func TestApproxShapleyEfficiencyLargeN(t *testing.T) {
	for _, n := range []int{100, 200} {
		g, w := sumWeightGame(n, uint64(n))
		total := 0.0
		for _, x := range w {
			total += x
		}
		vn := math.Pow(total, 0.7)
		res, err := approxShapley(g, Options{Samples: 2 * n, Seed: 11}, nil)
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for _, p := range res.Phi {
			sum += p
		}
		// Every sampled ordering's marginals telescope to V(N), so the
		// efficiency axiom holds to float rounding even at tiny budgets.
		if math.Abs(sum-vn) > 1e-9*vn {
			t.Errorf("n=%d: Σφ = %.12f, V(N) = %.12f", n, sum, vn)
		}
	}
}

func TestApproxShapleyDeterministicAcrossWorkers(t *testing.T) {
	g, _ := sumWeightGame(40, 3)
	var base *ValueResult
	for _, workers := range []int{1, 3, 8, 64} {
		res, err := approxShapley(g, Options{Samples: 400, Seed: 42, Workers: workers}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = res
			continue
		}
		if res.Samples != base.Samples {
			t.Fatalf("workers=%d: %d samples, want %d", workers, res.Samples, base.Samples)
		}
		for i := range base.Phi {
			if res.Phi[i] != base.Phi[i] || res.CIHalf[i] != base.CIHalf[i] {
				t.Fatalf("workers=%d: player %d diverged: phi %v vs %v, ci %v vs %v",
					workers, i, res.Phi[i], base.Phi[i], res.CIHalf[i], base.CIHalf[i])
			}
		}
	}
}

func TestApproxShapleyAdaptiveCITarget(t *testing.T) {
	g, _ := sumWeightGame(20, 9)
	target := 0.002
	res, err := approxShapley(g, Options{CITarget: target, Seed: 5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge to CI target %g in %d samples", target, res.Samples)
	}
	// The first adaptive round draws one block of 2n permutations.
	if res.Samples <= 2*g.N() {
		t.Errorf("expected multiple adaptive rounds, got %d samples", res.Samples)
	}
	for i, ci := range res.CIHalf {
		if ci > target {
			t.Errorf("player %d: CI half-width %g above target %g", i, ci, target)
		}
	}
}

func TestApproxShapleyAdaptiveRespectsBudgetCap(t *testing.T) {
	g, _ := sumWeightGame(20, 9)
	// An unreachable CI target must stop at the budget, not spin.
	res, err := approxShapley(g, Options{CITarget: 1e-12, Samples: 200, Seed: 5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Error("reported convergence on an unreachable CI target")
	}
	// The 200-perm cap is exactly 5 antithetic blocks at n=20: the sampler
	// must consume it fully and stop there.
	if res.Samples != 200 {
		t.Errorf("expected the full 200-permutation budget, got %d samples", res.Samples)
	}
}

func TestApproxShapleyGroupPoolingMatchesUngrouped(t *testing.T) {
	// All players identical: the class estimate must equal each player's
	// share (V(N)/n by symmetry) and pooling must tighten the CI.
	n := 30
	g := MemberFunc{Players: n, V: func(members []int) float64 {
		return math.Sqrt(float64(len(members)))
	}}
	groups := [][]int{make([]int, n)}
	for i := 0; i < n; i++ {
		groups[0][i] = i
	}
	pooled, err := approxShapley(g, Options{Samples: 2 * n, Seed: 21}, groups)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := approxShapley(g, Options{Samples: 2 * n, Seed: 21}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Sqrt(float64(n)) / float64(n)
	for i := 0; i < n; i++ {
		if math.Abs(pooled.Phi[i]-want) > 1e-9 {
			t.Errorf("pooled phi[%d] = %.12f, want %.12f", i, pooled.Phi[i], want)
		}
		if pooled.CIHalf[i] > plain.CIHalf[i]+1e-12 {
			t.Errorf("pooling widened player %d's CI: %g vs %g", i, pooled.CIHalf[i], plain.CIHalf[i])
		}
	}
}

func TestApproxShapleyAntitheticTightensCI(t *testing.T) {
	// For a monotone concave game the forward and reversed orderings'
	// marginals anticorrelate; with this fixed seed the paired estimator
	// must beat the plain sequential estimator of independent orderings
	// at an equal permutation budget.
	mg, _ := sumWeightGame(16, 13)
	paired, err := approxShapley(mg, Options{Samples: 1024, Seed: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if paired.Samples != 1024 {
		t.Fatalf("paired estimator drew %d permutations, want 1024", paired.Samples)
	}
	g := tableOf(mg.N(), func(s combin.Set) float64 { return mg.ValueMembers(s.Members()) })
	_, indepErr := monteCarloShapley(g, 1024, stats.NewRand(3))
	var pairedMax, indepMax float64
	for i := range paired.CIHalf {
		pairedMax = math.Max(pairedMax, paired.CIHalf[i])
		indepMax = math.Max(indepMax, 1.96*indepErr[i])
	}
	if pairedMax >= indepMax {
		t.Errorf("antithetic max CI %g not below independent %g", pairedMax, indepMax)
	}
	t.Logf("max 95%% CI half-width: antithetic %.3g, independent %.3g", pairedMax, indepMax)
}

func TestApproxShapleyErrors(t *testing.T) {
	g, _ := sumWeightGame(4, 1)
	cases := []struct {
		name string
		opt  Options
		want string
	}{
		{"negative samples", Options{Samples: -1}, "negative sample budget"},
		{"negative target", Options{CITarget: -0.5}, "negative CI target"},
	}
	for _, tc := range cases {
		if _, err := approxShapley(g, tc.opt, nil); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

func TestApproxShapleyEmptyGame(t *testing.T) {
	res, err := Values(MemberFunc{Players: 0, V: func([]int) float64 { return 0 }},
		Options{Method: MethodApprox, Samples: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Phi) != 0 || !res.Converged {
		t.Errorf("unexpected empty-game result %+v", res)
	}
}

// TestApproxShapleyConcurrentValueCalls drives the sampler across workers
// against a shared mutable-state game guarded only by the required
// concurrency-safety contract; run under -race this is the sampler's race
// test.
func TestApproxShapleyConcurrentValueCalls(t *testing.T) {
	tab := randomMonotoneTable(t, 10, 77)
	var calls atomic.Int64 // shared mutable state under the sampler
	g := MemberFunc{Players: 10, V: func(members []int) float64 {
		calls.Add(1)
		return tab.Values[setOf(members)]
	}}
	res, err := approxShapley(g, Options{Samples: 2000, Seed: 1, Workers: 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	exact := BatchedValues(tab, 1).Shapley
	for i := range exact {
		if diff := math.Abs(res.Phi[i] - exact[i]); diff > 5*res.CIHalf[i]+1e-9 {
			t.Errorf("player %d: %g vs exact %g", i, res.Phi[i], exact[i])
		}
	}
}

// TestApproxShapleyAgreesWithSequentialOracle cross-checks the parallel
// sampler against the independently coded sequential loop: the two
// independent sample streams must agree within their combined sampling
// error on every player.
func TestApproxShapleyAgreesWithSequentialOracle(t *testing.T) {
	tab := randomMonotoneTable(t, 9, 4)
	par, err := approxShapley(tableGame{tab}, Options{Samples: 20000, Seed: 7, Workers: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	seq, seqErr := monteCarloShapley(tab, 20000, stats.NewRand(8))
	for i := range par.Phi {
		tol := 6*(par.CIHalf[i]/1.96+seqErr[i]) + 1e-9
		if diff := math.Abs(par.Phi[i] - seq[i]); diff > tol {
			t.Errorf("player %d: parallel %.6f vs sequential %.6f (diff %.2g > tol %.2g)",
				i, par.Phi[i], seq[i], diff, tol)
		}
	}
}
