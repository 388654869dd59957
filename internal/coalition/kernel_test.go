package coalition

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"fedshare/internal/combin"
	"fedshare/internal/stats"
)

// randomTable builds a random n-player Table game (V(∅) = 0, values in
// [-50, 50) so games are generally non-monotone).
func randomTable(t *testing.T, n int, rng *stats.Rand) *Table {
	t.Helper()
	vals := make([]float64, 1<<uint(n))
	for i := 1; i < len(vals); i++ {
		vals[i] = rng.Float64()*100 - 50
	}
	g, err := NewTable(n, vals)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBatchedValuesMatchesOracles(t *testing.T) {
	rng := stats.NewRand(1729)
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(8)
		g := randomTable(t, n, rng)
		res := BatchedValues(g, 1)
		almostEqualVec(t, res.Shapley, shapleyLegacy(g), 1e-9, "kernel vs legacy Shapley")
		almostEqualVec(t, res.Shapley, shapleyByPermutation(g), 1e-9, "kernel vs permutation oracle")
		almostEqualVec(t, res.Banzhaf, banzhafLegacy(g), 1e-9, "kernel vs legacy Banzhaf")
	}
}

// ownTableGame keeps its own dense table, as core.Model does. Its
// ValueMembers must never run: the kernel is required to sweep the kept
// table.
type ownTableGame struct{ tab *Table }

func (g ownTableGame) N() int                     { return g.tab.Players }
func (g ownTableGame) Table() (*Table, error)     { return g.tab, nil }
func (g ownTableGame) ValueMembers([]int) float64 { panic("kernel re-evaluated a kept table") }

func TestBatchedValuesDispatch(t *testing.T) {
	// Values must route games keeping their own table through the
	// kernel at any worker count, and still agree with the oracles.
	rng := stats.NewRand(99)
	g := randomTable(t, 6, rng)
	want := shapleyByPermutation(g)
	for _, workers := range []int{1, 4} {
		res, err := Values(ownTableGame{g}, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if res.Method != EngineKernel {
			t.Fatalf("method %q, want %q", res.Method, EngineKernel)
		}
		almostEqualVec(t, res.Phi, want, 1e-9, "dispatched Shapley")
	}
	almostEqualVec(t, banzhaf(t, g), banzhafLegacy(g), 1e-9, "kernel Banzhaf")
}

func TestBatchedValuesEdgeCases(t *testing.T) {
	// n = 0: empty (but allocated) result vectors.
	empty, err := NewTable(0, []float64{0})
	if err != nil {
		t.Fatal(err)
	}
	res := BatchedValues(empty, 1)
	if len(res.Shapley) != 0 || len(res.Banzhaf) != 0 {
		t.Errorf("n=0 kernel returned %v", res)
	}
	if got, err := Values(tableGame{empty}, Options{}); err != nil || got.Phi != nil {
		t.Errorf("Values(n=0) = %+v, %v; want nil shares", got, err)
	}

	// n = 1: the lone player gets V({0}) under both indices.
	single, err := NewTable(1, []float64{0, 7.5})
	if err != nil {
		t.Fatal(err)
	}
	res = BatchedValues(single, 1)
	if res.Shapley[0] != 7.5 || res.Banzhaf[0] != 7.5 {
		t.Errorf("n=1 kernel returned %+v, want 7.5/7.5", res)
	}

	// A non-monotone game: adding player 1 destroys value.
	nonMono, err := NewTable(2, []float64{0, 10, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	res = BatchedValues(nonMono, 1)
	almostEqualVec(t, res.Shapley, shapleyByPermutation(nonMono), 1e-12, "non-monotone Shapley")
	if res.Shapley[1] >= 0 {
		t.Errorf("player 1 destroys value, φ_1 = %g should be negative", res.Shapley[1])
	}
	almostEqualVec(t, res.Banzhaf, banzhafLegacy(nonMono), 1e-12, "non-monotone Banzhaf")
}

func TestBatchedValuesParallelMatchesSequential(t *testing.T) {
	rng := stats.NewRand(7)
	for _, n := range []int{1, 2, 5, 9, 13} {
		g := randomTable(t, n, rng)
		want := BatchedValues(g, 1)
		// Any workers ≤ 1 is the sequential sweep itself, bit for bit.
		if got := BatchedValues(g, 0); !reflect.DeepEqual(got, want) {
			t.Errorf("n=%d: workers=0 gave %v, sequential %v", n, got, want)
		}
		for _, workers := range []int{2, 3, 8, 33} {
			got := BatchedValues(g, workers)
			almostEqualVec(t, got.Shapley, want.Shapley, 1e-9, "parallel kernel Shapley")
			almostEqualVec(t, got.Banzhaf, want.Banzhaf, 1e-9, "parallel kernel Banzhaf")
		}
	}
}

func TestBatchedValuesEfficiency(t *testing.T) {
	// Shapley from the kernel must still satisfy Σφ_i = V(N).
	rng := stats.NewRand(12)
	g := randomTable(t, 10, rng)
	res := BatchedValues(g, 4)
	if err := checkEfficiency(g, res.Shapley, 1e-9); err != nil {
		t.Error(err)
	}
}

func TestShapleyWeights(t *testing.T) {
	// Closed binomial form must match the factorial definition, and the
	// weights over all subsets of N\{i} must sum to 1.
	for n := 1; n <= 12; n++ {
		w := shapleyWeights(n)
		sum := 0.0
		for s := 0; s < n; s++ {
			want := factorial(s) * factorial(n-s-1) / factorial(n)
			if math.Abs(w[s]-want) > 1e-12*want {
				t.Errorf("n=%d: w[%d] = %g, want %g", n, s, w[s], want)
			}
			sum += combin.Binomial(n-1, s) * w[s]
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("n=%d: weights sum to %g", n, sum)
		}
	}
}

// factorial returns n! as a float64, exact through n = 22.
func factorial(n int) float64 {
	out := 1.0
	for i := 2; i <= n; i++ {
		out *= float64(i)
	}
	return out
}

func TestShapleyFallbackForNonSnapshotGames(t *testing.T) {
	// A game violating the V(∅) = 0 contract cannot be snapshotted. Values
	// must fall back to the sampler, whose marginals telescope to V(N),
	// rather than fail, and must refuse an exact request.
	bad := snapshotGame{n: 3, v: func(s combin.Set) float64 {
		return float64(s.Card()) + 1 // V(∅) = 1
	}}
	res, err := Values(bad, Options{Samples: 60, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != EngineApprox {
		t.Fatalf("method %q, want %q", res.Method, EngineApprox)
	}
	sum := 0.0
	for _, p := range res.Phi {
		sum += p
	}
	if math.Abs(sum-4) > 1e-9 {
		t.Errorf("sampled shares sum to %g, want V(N) = 4", sum)
	}
	if _, err := Values(bad, Options{Method: MethodExact}); err == nil {
		t.Error("exact request on a non-snapshot game must fail")
	}
}

func TestSnapshotParallel(t *testing.T) {
	// 2^10 coalitions, enough to shard over several workers.
	g := randomTable(t, 10, stats.NewRand(5))
	v := func(s combin.Set) float64 { return g.Values[s] }
	seq, err := Snapshot(g.Players, v, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 5, 100} {
		par, err := Snapshot(g.Players, v, workers)
		if err != nil {
			t.Fatal(err)
		}
		if par.Players != seq.Players {
			t.Fatalf("players %d vs %d", par.Players, seq.Players)
		}
		for s := range seq.Values {
			if par.Values[s] != seq.Values[s] {
				t.Errorf("workers=%d: V(%s) = %g, want %g",
					workers, combin.Set(s), par.Values[s], seq.Values[s])
			}
		}
	}
	for _, workers := range []int{1, 4} {
		if _, err := Snapshot(30, func(combin.Set) float64 { return 0 }, workers); err == nil {
			t.Errorf("workers=%d: oversized Snapshot must fail", workers)
		}
	}
}

func TestParallelBatched(t *testing.T) {
	rng := stats.NewRand(3)
	// The sharded kernel over a parallel snapshot agrees with the oracles;
	// beyond the 24-player table bound an unstructured game has no exact
	// engine.
	g := randomTable(t, 7, rng)
	snap, err := Snapshot(g.Players, func(s combin.Set) float64 { return g.Values[s] }, 4)
	if err != nil {
		t.Fatal(err)
	}
	res := BatchedValues(snap, 4)
	almostEqualVec(t, res.Shapley, shapleyByPermutation(g), 1e-9, "parallel batched Shapley")
	almostEqualVec(t, res.Banzhaf, banzhafLegacy(g), 1e-9, "parallel batched Banzhaf")

	big := snapshotGame{n: 30, v: func(combin.Set) float64 { return 0 }}
	if _, err := Values(big, Options{Method: MethodExact, Workers: 4}); err == nil {
		t.Error("exact Values beyond 24 players must fail")
	}
}

func BenchmarkShapleyKernel16(b *testing.B) {
	g := benchTable(b, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BatchedValues(g, 1)
	}
}

func BenchmarkShapleyKernelParallel16(b *testing.B) {
	g := benchTable(b, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BatchedValues(g, runtime.GOMAXPROCS(0))
	}
}

func benchTable(b *testing.B, n int) *Table {
	b.Helper()
	rng := stats.NewRand(42)
	vals := make([]float64, 1<<uint(n))
	for i := 1; i < len(vals); i++ {
		vals[i] = rng.Float64()
	}
	g, err := NewTable(n, vals)
	if err != nil {
		b.Fatal(err)
	}
	return g
}
