package coalition

import (
	"math"
	"runtime"
	"sync/atomic"
	"testing"

	"fedshare/internal/combin"
	"fedshare/internal/stats"
)

func TestParallelShapleyMatchesSequential(t *testing.T) {
	rng := stats.NewRand(91)
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(8)
		vals := make([]float64, 1<<uint(n))
		for i := 1; i < len(vals); i++ {
			vals[i] = rng.Float64() * 100
		}
		g, err := NewTable(n, vals)
		if err != nil {
			t.Fatal(err)
		}
		seq := BatchedValues(g, 1).Shapley
		for _, workers := range []int{0, 1, 2, 16} {
			res, err := Values(tableGame{g}, Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			almostEqualVec(t, res.Phi, seq, 1e-9, "parallel vs sequential Shapley")
		}
	}
}

func TestParallelShapleyWeights(t *testing.T) {
	// The kernel's weights must reproduce an additive game's values
	// exactly at any worker count — additive games expose any weight error.
	w := []float64{2, 3, 5, 7, 11, 13}
	res, err := Values(tableGame{additiveGame(w)}, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	almostEqualVec(t, res.Phi, w, 1e-9, "additive parallel Shapley")
}

// TestParallelShapleyWorkersExceedPlayers pins the kernel's contract:
// worker count scales with the 2^n coalition range, so asking for far more
// workers than players must still be correct.
func TestParallelShapleyWorkersExceedPlayers(t *testing.T) {
	rng := stats.NewRand(5)
	n := 4
	vals := make([]float64, 1<<uint(n))
	for i := 1; i < len(vals); i++ {
		vals[i] = rng.Float64() * 10
	}
	g, err := NewTable(n, vals)
	if err != nil {
		t.Fatal(err)
	}
	want := shapleyByPermutation(g)
	for _, workers := range []int{n + 1, 4 * n, 1 << n, 1000} {
		res, err := Values(tableGame{g}, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		almostEqualVec(t, res.Phi, want, 1e-9, "Values with workers >> n")
	}
}

func TestSnapshot(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var calls atomic.Int64
		snap, err := Snapshot(8, func(s combin.Set) float64 {
			calls.Add(1)
			return float64(s.Card() * 2)
		}, workers)
		if err != nil {
			t.Fatal(err)
		}
		if n := calls.Load(); n != 256 {
			t.Errorf("workers=%d: snapshot made %d calls, want 256", workers, n)
		}
		combin.AllCoalitions(8, func(s combin.Set) bool {
			if snap.Values[s] != float64(s.Card()*2) {
				t.Errorf("workers=%d: snapshot V(%v) = %g", workers, s, snap.Values[s])
			}
			return true
		})
	}
	if _, err := Snapshot(30, func(combin.Set) float64 { return 0 }, 1); err == nil {
		t.Error("oversized snapshot must fail")
	}
	if _, err := Snapshot(2, func(combin.Set) float64 { return 1 }, 1); err == nil {
		t.Error("a snapshot with V(empty) != 0 must fail")
	}
}

func BenchmarkParallelShapley16(b *testing.B) {
	snap := tableOf(16, func(s combin.Set) float64 {
		c := float64(s.Card())
		return c * math.Sqrt(c)
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BatchedValues(snap, runtime.GOMAXPROCS(0))
	}
}

func BenchmarkSequentialShapley16(b *testing.B) {
	snap := tableOf(16, func(s combin.Set) float64 {
		c := float64(s.Card())
		return c * math.Sqrt(c)
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BatchedValues(snap, 1)
	}
}
