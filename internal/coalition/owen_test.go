package coalition

import (
	"math"
	"testing"

	"fedshare/internal/combin"
	"fedshare/internal/stats"
)

func TestStructureValidate(t *testing.T) {
	if err := (Structure{Blocks: [][]int{{0, 1}, {2}}}).Validate(3); err != nil {
		t.Errorf("valid partition rejected: %v", err)
	}
	bad := []Structure{
		{Blocks: [][]int{{0, 1}}},         // misses player 2
		{Blocks: [][]int{{0, 1}, {1, 2}}}, // duplicate
		{Blocks: [][]int{{0, 1, 2}, {}}},  // empty block
		{Blocks: [][]int{{0, 1}, {5}}},    // out of range
	}
	for i, st := range bad {
		if err := st.Validate(3); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

func TestOwenSingletonsEqualsShapley(t *testing.T) {
	g := gloveGame()
	owen, err := Owen(g, Singletons(3))
	if err != nil {
		t.Fatal(err)
	}
	almostEqualVec(t, owen, shapley(t, g), 1e-9, "Owen with singleton blocks")
}

func TestOwenOneBlockEqualsShapley(t *testing.T) {
	g := gloveGame()
	owen, err := Owen(g, Structure{Blocks: [][]int{{0, 1, 2}}})
	if err != nil {
		t.Fatal(err)
	}
	almostEqualVec(t, owen, shapley(t, g), 1e-9, "Owen with one block")
}

func TestOwenEfficiency(t *testing.T) {
	rng := stats.NewRand(83)
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(3)
		vals := make([]float64, 1<<uint(n))
		for i := 1; i < len(vals); i++ {
			vals[i] = rng.Float64() * 10
		}
		g, _ := NewTable(n, vals)
		// Random partition into two blocks.
		var a, b []int
		for p := 0; p < n; p++ {
			if rng.Intn(2) == 0 {
				a = append(a, p)
			} else {
				b = append(b, p)
			}
		}
		st := Structure{Blocks: [][]int{a, b}}
		if len(a) == 0 || len(b) == 0 {
			st = Singletons(n)
		}
		owen, err := Owen(g, st)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkEfficiency(g, owen, 1e-7); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestOwenQuotientConsistency(t *testing.T) {
	// The sum of Owen values within a block equals the block's Shapley
	// value in the quotient game.
	g := Func{Players: 4, V: func(s combin.Set) float64 {
		// Asymmetric game mixing diversity and capacity flavors.
		c := float64(s.Card())
		bonus := 0.0
		if s.Contains(0) && s.Contains(3) {
			bonus = 5
		}
		return c*c + bonus
	}}
	st := Structure{Blocks: [][]int{{0, 1}, {2, 3}}}
	owen, err := Owen(g, st)
	if err != nil {
		t.Fatal(err)
	}
	q, err := QuotientGame(g, st)
	if err != nil {
		t.Fatal(err)
	}
	qShapley := shapley(t, q)
	blockTotals := BlockShares(st, owen)
	almostEqualVec(t, blockTotals, qShapley, 1e-9, "Owen quotient consistency")
}

func TestOwenDiffersFromShapleyUnderStructure(t *testing.T) {
	// In the glove game, pairing one left-glove holder with the right-glove
	// holder changes bargaining power versus plain Shapley.
	g := gloveGame()
	st := Structure{Blocks: [][]int{{0, 2}, {1}}}
	owen, err := Owen(g, st)
	if err != nil {
		t.Fatal(err)
	}
	phi := shapley(t, g)
	diff := 0.0
	for i := range owen {
		diff += math.Abs(owen[i] - phi[i])
	}
	if diff < 1e-6 {
		t.Error("structure should change the value division in the glove game")
	}
	// Owen remains efficient.
	if err := checkEfficiency(g, owen, 1e-9); err != nil {
		t.Error(err)
	}
}

func TestMonteCarloOwenConverges(t *testing.T) {
	g := gloveGame()
	st := Structure{Blocks: [][]int{{0, 2}, {1}}}
	exact, err := Owen(g, st)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := MonteCarloOwen(g, st, 30000, stats.NewRand(4))
	if err != nil {
		t.Fatal(err)
	}
	almostEqualVec(t, mc, exact, 0.02, "MC Owen")
}

func TestOwenRejectsHugeStructures(t *testing.T) {
	g := Func{Players: 24, V: func(s combin.Set) float64 { return float64(s.Card()) }}
	st := Structure{Blocks: [][]int{{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11},
		{12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23}}}
	if _, err := Owen(g, st); err == nil {
		t.Error("oversized enumeration must be refused")
	}
	// Monte Carlo handles it.
	mc, err := MonteCarloOwen(g, st, 200, stats.NewRand(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := checkEfficiency(g, mc, 1e-6); err != nil {
		t.Error(err)
	}
}

func TestMonteCarloOwenValidation(t *testing.T) {
	g := gloveGame()
	if _, err := MonteCarloOwen(g, Singletons(3), 0, stats.NewRand(1)); err == nil {
		t.Error("zero samples must fail")
	}
	if _, err := MonteCarloOwen(g, Structure{Blocks: [][]int{{0}}}, 10, stats.NewRand(1)); err == nil {
		t.Error("invalid structure must fail")
	}
	big := Func{Players: 65, V: func(combin.Set) float64 { return 0 }}
	if _, err := MonteCarloOwen(big, Singletons(65), 10, stats.NewRand(1)); err == nil {
		t.Error("more players than a coalition bitmask holds must fail")
	}
}

func TestQuotientGameValues(t *testing.T) {
	g := gloveGame()
	st := Structure{Blocks: [][]int{{0, 1}, {2}}}
	q, err := QuotientGame(g, st)
	if err != nil {
		t.Fatal(err)
	}
	if q.N() != 2 {
		t.Errorf("quotient has %d players", q.N())
	}
	if v := q.Value(combin.Of(0)); v != 0 {
		t.Errorf("V({left gloves}) = %g", v)
	}
	if v := q.Value(combin.Of(0, 1)); v != 1 {
		t.Errorf("V(all) = %g", v)
	}
	if _, err := QuotientGame(g, Structure{Blocks: [][]int{{0}}}); err == nil {
		t.Error("invalid structure must fail")
	}
}

func BenchmarkOwen3x3(b *testing.B) {
	g := Func{Players: 9, V: func(s combin.Set) float64 {
		c := float64(s.Card())
		return c * c
	}}
	st := Structure{Blocks: [][]int{{0, 1, 2}, {3, 4, 5}, {6, 7, 8}}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Owen(g, st); err != nil {
			b.Fatal(err)
		}
	}
}
