package coalition

import (
	"math"
	"testing"

	"fedshare/internal/combin"
	"fedshare/internal/stats"
)

// Independently coded reference implementations. Production computes
// every Shapley value through Values; these oracles exist to check it.

// shapleyLegacy is the classic per-player subset enumeration
//
//	φ_i = Σ_{S ⊆ N\{i}}  |S|!·(n−|S|−1)!/n! · (V(S∪{i}) − V(S)),
//
// costing O(n·2^n) characteristic-function evaluations.
func shapleyLegacy(g *Table) []float64 {
	n := g.Players
	if n == 0 {
		return nil
	}
	weight := shapleyWeights(n)
	phi := make([]float64, n)
	full := combin.Full(n)
	for i := 0; i < n; i++ {
		rest := full.Without(i)
		combin.Subsets(rest, func(s combin.Set) bool {
			phi[i] += weight[s.Card()] * (g.Values[s.With(i)] - g.Values[s])
			return true
		})
	}
	return phi
}

// shapleyByPermutation computes the Shapley value by full enumeration of
// all n! orderings (equation (4) of the paper); it panics beyond 10
// players.
func shapleyByPermutation(g *Table) []float64 {
	n := g.Players
	if n > 10 {
		panic("coalition: shapleyByPermutation limited to 10 players")
	}
	phi := make([]float64, n)
	count := 0
	permutations(n, func(perm []int) {
		var s combin.Set
		prev := 0.0
		for _, p := range perm {
			s = s.With(p)
			v := g.Values[s]
			phi[p] += v - prev
			prev = v
		}
		count++
	})
	for i := range phi {
		phi[i] /= float64(count)
	}
	return phi
}

// permutations calls fn with each permutation of {0,…,n-1} using Heap's
// algorithm. The slice passed to fn is reused between calls.
func permutations(n int, fn func([]int)) {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	fn(perm)
	c := make([]int, n)
	for i := 0; i < n; {
		if c[i] < i {
			if i%2 == 0 {
				perm[0], perm[i] = perm[i], perm[0]
			} else {
				perm[c[i]], perm[i] = perm[i], perm[c[i]]
			}
			fn(perm)
			c[i]++
			i = 0
		} else {
			c[i] = 0
			i++
		}
	}
}

func TestPermutationsCountAndUniqueness(t *testing.T) {
	for n := 0; n <= 6; n++ {
		seen := map[string]bool{}
		permutations(n, func(p []int) {
			key := ""
			for _, v := range p {
				key += string(rune('a' + v))
			}
			if seen[key] {
				t.Errorf("n=%d: duplicate permutation %v", n, p)
			}
			seen[key] = true
		})
		if want := int(factorial(n)); len(seen) != want {
			t.Errorf("n=%d: got %d permutations, want %d", n, len(seen), want)
		}
	}
}

// banzhafLegacy is the per-player subset enumeration of the Banzhaf value
// β_i = 2^{-(n-1)} Σ_{S ⊆ N\{i}} (V(S∪{i}) − V(S)).
func banzhafLegacy(g *Table) []float64 {
	n := g.Players
	beta := make([]float64, n)
	if n == 0 {
		return beta
	}
	norm := math.Exp2(-float64(n - 1))
	full := combin.Full(n)
	for i := 0; i < n; i++ {
		rest := full.Without(i)
		combin.Subsets(rest, func(s combin.Set) bool {
			beta[i] += g.Values[s.With(i)] - g.Values[s]
			return true
		})
		beta[i] *= norm
	}
	return beta
}

// monteCarloShapley is the plain sequential sampling loop: uniform random
// orderings, one marginal per player per ordering. It returns the
// estimates and their standard errors.
func monteCarloShapley(g *Table, samples int, rng *stats.Rand) (phi, stdErr []float64) {
	n := g.Players
	sums := make([]stats.Summary, n)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for it := 0; it < samples; it++ {
		for i := n - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
		var s combin.Set
		prev := 0.0
		for _, p := range perm {
			s = s.With(p)
			v := g.Values[s]
			sums[p].Add(v - prev)
			prev = v
		}
	}
	phi = make([]float64, n)
	stdErr = make([]float64, n)
	for i := range sums {
		phi[i] = sums[i].Mean()
		if samples > 1 {
			stdErr[i] = sums[i].Stddev() / math.Sqrt(float64(samples))
		}
	}
	return phi, stdErr
}

// shapley is the exact Shapley value of a table through the production
// path: Values, answered by the lattice kernel.
func shapley(t testing.TB, g *Table) []float64 {
	t.Helper()
	res, err := Values(tableGame{g}, Options{Method: MethodExact})
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != EngineKernel {
		t.Fatalf("Values answered with %q, want %q", res.Method, EngineKernel)
	}
	return res.Phi
}

// banzhaf is the kernel's Banzhaf value of a table.
func banzhaf(t testing.TB, g *Table) []float64 {
	t.Helper()
	return BatchedValues(g, 1).Banzhaf
}

// BenchmarkShapleyLegacy measures the pre-kernel path on an n=20 Table: n
// independent per-player subset enumerations over the table.
// Compare with BenchmarkShapleyKernel in the repository root.
func BenchmarkShapleyLegacy(b *testing.B) {
	g := benchTable(b, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		shapleyLegacy(g)
	}
}
