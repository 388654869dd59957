package coalition

import (
	"math"
	"testing"

	"fedshare/internal/combin"
	"fedshare/internal/stats"
)

func TestHarsanyiDividendsAdditiveGame(t *testing.T) {
	w := []float64{2, 5, 9}
	div, err := HarsanyiDividends(additiveGame(w))
	if err != nil {
		t.Fatal(err)
	}
	// Additive games have dividends only on singletons.
	for s := 1; s < len(div); s++ {
		set := combin.Set(s)
		if set.Card() == 1 {
			i := set.Members()[0]
			if math.Abs(div[s]-w[i]) > 1e-12 {
				t.Errorf("Δ({%d}) = %g, want %g", i, div[s], w[i])
			}
		} else if math.Abs(div[s]) > 1e-12 {
			t.Errorf("Δ(%v) = %g, want 0", set, div[s])
		}
	}
}

func TestHarsanyiDividendsReconstruct(t *testing.T) {
	// V(S) must equal Σ_{T ⊆ S} Δ(T) for random games.
	rng := stats.NewRand(101)
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(6)
		vals := make([]float64, 1<<uint(n))
		for i := 1; i < len(vals); i++ {
			vals[i] = rng.Float64()*20 - 5
		}
		g, _ := NewTable(n, vals)
		div, err := HarsanyiDividends(g)
		if err != nil {
			t.Fatal(err)
		}
		combin.AllCoalitions(n, func(s combin.Set) bool {
			sum := 0.0
			combin.Subsets(s, func(sub combin.Set) bool {
				sum += div[sub]
				return true
			})
			if math.Abs(sum-g.Values[s]) > 1e-9 {
				t.Fatalf("trial %d: reconstruction of V(%v): %g != %g", trial, s, sum, g.Values[s])
			}
			return true
		})
	}
}

func TestWeightedShapleyEqualWeightsIsShapley(t *testing.T) {
	g := gloveGame()
	ws, err := WeightedShapley(g, []float64{3, 3, 3})
	if err != nil {
		t.Fatal(err)
	}
	almostEqualVec(t, ws, shapley(t, g), 1e-12, "equal-weight weighted Shapley")
}

func TestWeightedShapleyEfficiency(t *testing.T) {
	rng := stats.NewRand(103)
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(6)
		vals := make([]float64, 1<<uint(n))
		for i := 1; i < len(vals); i++ {
			vals[i] = rng.Float64() * 10
		}
		g, _ := NewTable(n, vals)
		w := make([]float64, n)
		for i := range w {
			w[i] = 0.5 + rng.Float64()*4
		}
		phi, err := WeightedShapley(g, w)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkEfficiency(g, phi, 1e-7); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestWeightedShapleyTiltsTowardHeavyPlayers(t *testing.T) {
	// Pure synergy game: only the grand coalition has value. The dividend
	// splits by weight, so the heavier player takes proportionally more.
	g := tableOf(2, func(s combin.Set) float64 {
		if s == combin.Full(2) {
			return 10
		}
		return 0
	})
	phi, err := WeightedShapley(g, []float64{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	almostEqualVec(t, phi, []float64{2, 8}, 1e-12, "weighted split of pure synergy")
}

func TestWeightedShapleyValidation(t *testing.T) {
	g := gloveGame()
	if _, err := WeightedShapley(g, []float64{1, 2}); err == nil {
		t.Error("wrong weight count must fail")
	}
	if _, err := WeightedShapley(g, []float64{1, 0, 2}); err == nil {
		t.Error("zero weight must fail")
	}
	if _, err := WeightedShapley(g, []float64{1, -1, 2}); err == nil {
		t.Error("negative weight must fail")
	}
}

func TestDividendsSizeLimit(t *testing.T) {
	// The check comes before the table is read, so a 25-player table
	// need not hold its 2^25 values here.
	if _, err := HarsanyiDividends(&Table{Players: 25}); err == nil {
		t.Error("oversized dividends must fail")
	}
}

func BenchmarkHarsanyiDividends16(b *testing.B) {
	snap := tableOf(16, func(s combin.Set) float64 {
		c := float64(s.Card())
		return c * c
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := HarsanyiDividends(snap); err != nil {
			b.Fatal(err)
		}
	}
}
