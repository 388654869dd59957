package coalition

import (
	"math"
	"testing"

	"fedshare/internal/combin"
	"fedshare/internal/stats"
)

// gloveGame: players 0,1 hold left gloves, player 2 a right glove;
// V(S) = number of matched pairs.
func gloveGame() *Table {
	return tableOf(3, func(s combin.Set) float64 {
		left := 0
		if s.Contains(0) {
			left++
		}
		if s.Contains(1) {
			left++
		}
		right := 0
		if s.Contains(2) {
			right++
		}
		return math.Min(float64(left), float64(right))
	})
}

// additiveGame: V(S) = Σ_{i∈S} w_i.
func additiveGame(w []float64) *Table {
	return tableOf(len(w), func(s combin.Set) float64 {
		out := 0.0
		for _, i := range s.Members() {
			out += w[i]
		}
		return out
	})
}

// majorityGame: weighted voting [q; w...], V = 1 if Σw_i >= q.
func majorityGame(q float64, w []float64) *Table {
	return tableOf(len(w), func(s combin.Set) float64 {
		sum := 0.0
		for _, i := range s.Members() {
			sum += w[i]
		}
		if sum >= q {
			return 1
		}
		return 0
	})
}

// bankruptcyGame is the Aumann–Maschler Talmud game:
// V(S) = max(0, estate − Σ_{j∉S} claims_j).
func bankruptcyGame(estate float64, claims []float64) *Table {
	return tableOf(len(claims), func(s combin.Set) float64 {
		out := estate
		for j := range claims {
			if !s.Contains(j) {
				out -= claims[j]
			}
		}
		return math.Max(0, out)
	})
}

func almostEqualVec(t *testing.T, got, want []float64, tol float64, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d vs %d", label, len(got), len(want))
	}
	for i := range got {
		if math.Abs(got[i]-want[i]) > tol {
			t.Fatalf("%s: got %v, want %v", label, got, want)
		}
	}
}

func TestShapleyGloveGame(t *testing.T) {
	phi := shapley(t, gloveGame())
	almostEqualVec(t, phi, []float64{1.0 / 6, 1.0 / 6, 2.0 / 3}, 1e-12, "glove Shapley")
}

func TestShapleyAdditiveGame(t *testing.T) {
	w := []float64{3, 1, 4, 1, 5}
	phi := shapley(t, additiveGame(w))
	almostEqualVec(t, phi, w, 1e-9, "additive Shapley")
}

func TestShapleyMajorityGame(t *testing.T) {
	// [3; 2,1,1]: player 0 pivotal in 4 of 6 orderings.
	phi := shapley(t, majorityGame(3, []float64{2, 1, 1}))
	almostEqualVec(t, phi, []float64{2.0 / 3, 1.0 / 6, 1.0 / 6}, 1e-12, "majority Shapley")
}

func TestShapleyMatchesPermutationOracle(t *testing.T) {
	rng := stats.NewRand(21)
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(5)
		vals := make([]float64, 1<<uint(n))
		for i := 1; i < len(vals); i++ {
			vals[i] = rng.Float64() * 10
		}
		g, err := NewTable(n, vals)
		if err != nil {
			t.Fatal(err)
		}
		almostEqualVec(t, shapley(t, g), shapleyByPermutation(g), 1e-9, "kernel vs permutation")
	}
}

func TestShapleyEfficiencyProperty(t *testing.T) {
	rng := stats.NewRand(31)
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(6)
		vals := make([]float64, 1<<uint(n))
		for i := 1; i < len(vals); i++ {
			vals[i] = rng.Float64()*20 - 5
		}
		g, _ := NewTable(n, vals)
		phi := shapley(t, g)
		if err := checkEfficiency(g, phi, 1e-7); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestShapleySymmetryProperty(t *testing.T) {
	// Symmetric game: V depends only on |S| -> all Shapley values equal.
	g := tableOf(5, func(s combin.Set) float64 {
		c := float64(s.Card())
		return c * c
	})
	phi := shapley(t, g)
	for i := 1; i < len(phi); i++ {
		if math.Abs(phi[i]-phi[0]) > 1e-9 {
			t.Fatalf("symmetric game has asymmetric Shapley: %v", phi)
		}
	}
}

func TestShapleyDummyProperty(t *testing.T) {
	// Player 2 contributes exactly 7 to every coalition -> φ_2 = 7.
	g := tableOf(3, func(s combin.Set) float64 {
		base := 0.0
		if s.Contains(0) && s.Contains(1) {
			base = 10
		}
		if s.Contains(2) {
			base += 7
		}
		return base
	})
	phi := shapley(t, g)
	if math.Abs(phi[2]-7) > 1e-9 {
		t.Errorf("dummy player got %g, want 7", phi[2])
	}
}

// TestMonteCarloShapleyConverges validates the sequential sampling oracle
// the sampler is cross-checked against.
func TestMonteCarloShapleyConverges(t *testing.T) {
	phi, stdErr := monteCarloShapley(gloveGame(), 20000, stats.NewRand(8))
	almostEqualVec(t, phi, []float64{1.0 / 6, 1.0 / 6, 2.0 / 3}, 0.02, "MC Shapley")
	for i, se := range stdErr {
		if se <= 0 || se > 0.02 {
			t.Errorf("stderr[%d] = %g out of expected band", i, se)
		}
	}
}

func TestBanzhafGlove(t *testing.T) {
	// Marginals of player 2 (right glove): adds min(L,1) when joining.
	// β_2 = (0 + 1 + 1 + 1)/4 = 3/4; β_0 = β_1 = (V gains)/4 = 1/4.
	beta := banzhaf(t, gloveGame())
	almostEqualVec(t, beta, []float64{1.0 / 4, 1.0 / 4, 3.0 / 4}, 1e-12, "glove Banzhaf")
}

func TestProperties(t *testing.T) {
	if !IsSuperadditive(gloveGame()) {
		t.Error("glove game is superadditive")
	}
	if !IsConvex(tableOf(4, func(s combin.Set) float64 {
		c := float64(s.Card())
		return c * c
	})) {
		t.Error("|S|^2 is convex")
	}
	if IsConvex(tableOf(3, func(s combin.Set) float64 {
		return math.Sqrt(float64(s.Card()))
	})) {
		t.Error("sqrt(|S|) is strictly concave, not convex")
	}
	if !isMonotone(gloveGame()) {
		t.Error("glove game is monotone")
	}
	// A non-superadditive game: strictly concave in |S| with positive
	// singletons.
	g := tableOf(3, func(s combin.Set) float64 {
		return math.Sqrt(float64(s.Card()))
	})
	if IsSuperadditive(g) {
		t.Error("sqrt(|S|) should not be superadditive")
	}
}

func TestPaperConvexityClaim(t *testing.T) {
	// Sec 3.2.1: with u strictly concave, no threshold, no multiplexing
	// (d<1, l=0, t=1), the game is not superadditive. With d>1 "the core
	// always exists". Model one experiment over additive locations.
	locs := []float64{100, 400, 800}
	mk := func(d, l float64) *Table {
		return tableOf(3, func(s combin.Set) float64 {
			x := 0.0
			for _, i := range s.Members() {
				x += locs[i]
			}
			if x < l || x == 0 {
				return 0
			}
			return math.Pow(x, d)
		})
	}
	if IsSuperadditive(mk(0.8, 0)) {
		t.Error("d<1, l=0 game should not be superadditive")
	}
	g := mk(1.2, 0)
	if !IsConvex(g) {
		t.Error("d>1 game should be convex")
	}
	if !coreNonempty(t, g) {
		t.Error("convex game must have nonempty core")
	}
	// Large threshold also creates a nonempty core (grand coalition alone
	// feasible).
	if !coreNonempty(t, mk(1, 1300)) {
		t.Error("all-must-cooperate game must have nonempty core")
	}
}

func TestInCoreAndLeastCoreGlove(t *testing.T) {
	g := gloveGame()
	if !inCore(g, []float64{0, 0, 1}, 1e-9) {
		t.Error("(0,0,1) is the glove-game core point")
	}
	if inCore(g, []float64{0.5, 0, 0.5}, 1e-9) {
		t.Error("(0.5,0,0.5) violates {1,2}'s guarantee")
	}
	if inCore(g, []float64{0, 0, 0.9}, 1e-9) {
		t.Error("inefficient allocation cannot be in the core")
	}
	res, err := LeastCore(g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Epsilon > 1e-7 {
		t.Errorf("glove-game core nonempty but epsilon = %g", res.Epsilon)
	}
	if !inCore(g, res.X, 1e-6) {
		t.Errorf("least-core point %v should be in the core", res.X)
	}
}

func TestLeastCoreEmptyCore(t *testing.T) {
	// 3-player simple majority game: any 2 players win; core empty.
	g := majorityGame(2, []float64{1, 1, 1})
	res, err := LeastCore(g)
	if err != nil {
		t.Fatal(err)
	}
	// Max excess is minimized at x = (1/3,1/3,1/3) giving e = 1 - 2/3 = 1/3.
	if math.Abs(res.Epsilon-1.0/3.0) > 1e-6 {
		t.Errorf("epsilon = %g, want 1/3", res.Epsilon)
	}
	if coreNonempty(t, g) {
		t.Error("majority game core must be empty")
	}
}

func TestNucleolusTwoPlayerStandardSolution(t *testing.T) {
	// Standard solution: x_i = V(i) + (V(N) − V(1) − V(2))/2.
	vals := []float64{0, 10, 20, 50}
	g, _ := NewTable(2, vals)
	nuc, err := Nucleolus(g)
	if err != nil {
		t.Fatal(err)
	}
	almostEqualVec(t, nuc, []float64{20, 30}, 1e-6, "two-player nucleolus")
}

func TestNucleolusGlove(t *testing.T) {
	nuc, err := Nucleolus(gloveGame())
	if err != nil {
		t.Fatal(err)
	}
	almostEqualVec(t, nuc, []float64{0, 0, 1}, 1e-6, "glove nucleolus")
}

func TestNucleolusTalmud(t *testing.T) {
	// Aumann–Maschler: nucleolus of the bankruptcy game equals the Talmud
	// rule. Estate 300, claims (100,200,300) -> (50,100,150).
	g := bankruptcyGame(300, []float64{100, 200, 300})
	nuc, err := Nucleolus(g)
	if err != nil {
		t.Fatal(err)
	}
	almostEqualVec(t, nuc, []float64{50, 100, 150}, 1e-5, "Talmud nucleolus")

	// Estate 100: equal split of a small estate -> (33.3, 33.3, 33.3).
	g2 := bankruptcyGame(100, []float64{100, 200, 300})
	nuc2, err := Nucleolus(g2)
	if err != nil {
		t.Fatal(err)
	}
	almostEqualVec(t, nuc2, []float64{100.0 / 3, 100.0 / 3, 100.0 / 3}, 1e-5, "Talmud small estate")
}

func TestNucleolusSymmetric(t *testing.T) {
	g := tableOf(4, func(s combin.Set) float64 {
		return float64(s.Card() * s.Card())
	})
	nuc, err := Nucleolus(g)
	if err != nil {
		t.Fatal(err)
	}
	almostEqualVec(t, nuc, []float64{4, 4, 4, 4}, 1e-6, "symmetric nucleolus")
}

func TestNucleolusInCoreProperty(t *testing.T) {
	// For random convex games (nonempty core), the nucleolus must lie in
	// the core.
	rng := stats.NewRand(77)
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(3)
		// Convex game: V(S) = (Σ w_i)^2 for random positive weights.
		w := make([]float64, n)
		for i := range w {
			w[i] = rng.Float64() + 0.1
		}
		g := tableOf(n, func(s combin.Set) float64 {
			sum := 0.0
			for _, i := range s.Members() {
				sum += w[i]
			}
			return sum * sum
		})
		if !IsConvex(g) {
			t.Fatal("construction should be convex")
		}
		nuc, err := Nucleolus(g)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !inCore(g, nuc, 1e-5) {
			t.Fatalf("trial %d: nucleolus %v not in core", trial, nuc)
		}
	}
}

func TestNewTableValidation(t *testing.T) {
	if _, err := NewTable(2, []float64{0, 1, 2}); err == nil {
		t.Error("wrong-size table must fail")
	}
	if _, err := NewTable(2, []float64{1, 0, 0, 0}); err == nil {
		t.Error("V(empty) != 0 must fail")
	}
	if _, err := NewTable(2, []float64{0, 1, 2, 4}); err != nil {
		t.Errorf("valid table rejected: %v", err)
	}
}

// BenchmarkShapley10 measures Values end to end on a 10-player game:
// snapshot, then one kernel sweep.
func BenchmarkShapley10(b *testing.B) {
	g := snapshotGame{n: 10, v: func(s combin.Set) float64 {
		c := float64(s.Card())
		return c * c
	}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Values(g, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNucleolus5(b *testing.B) {
	g := bankruptcyGame(300, []float64{50, 100, 150, 200, 250})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Nucleolus(g); err != nil {
			b.Fatal(err)
		}
	}
}
