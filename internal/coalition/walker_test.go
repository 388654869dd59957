package coalition

import (
	"math"
	"sync/atomic"
	"testing"

	"fedshare/internal/stats"
)

// testPrefixGame is an additive game (V = Σ weights) implementing
// PrefixGame, with counters proving which walker path ran. Its valuers
// offer the batch Walk when batch is set; with nilValuer it hands out
// none, as overlap models do.
type testPrefixGame struct {
	w         []float64
	batch     bool
	nilValuer bool
	extends   atomic.Int64
	walks     atomic.Int64
}

func (g *testPrefixGame) N() int { return len(g.w) }

func (g *testPrefixGame) ValueMembers(members []int) float64 {
	v := 0.0
	for _, p := range members {
		v += g.w[p]
	}
	return v
}

func (g *testPrefixGame) PrefixValuer() PrefixValuer {
	switch {
	case g.nilValuer:
		return nil
	case g.batch:
		return &testWalkValuer{testPrefixValuer{g: g}}
	}
	return &testPrefixValuer{g: g}
}

type testPrefixValuer struct {
	g *testPrefixGame
	v float64
}

func (pv *testPrefixValuer) Reset() { pv.v = 0 }

func (pv *testPrefixValuer) Extend(p int) float64 {
	pv.g.extends.Add(1)
	pv.v += pv.g.w[p]
	return pv.v
}

// testWalkValuer adds the batch Walk to testPrefixValuer.
type testWalkValuer struct{ testPrefixValuer }

func (pv *testWalkValuer) Walk(perm []int, vals []float64) {
	pv.g.walks.Add(1)
	v := 0.0
	for k, p := range perm {
		v += pv.g.w[p]
		vals[k] = v
	}
}

// newTestPrefixGame returns an n-player additive game whose weights are
// multiples of 1/4, so every prefix sum is exact in any order.
func newTestPrefixGame(n int) *testPrefixGame {
	g := &testPrefixGame{w: make([]float64, n)}
	for i := range g.w {
		g.w[i] = float64(i%7) + 0.25
	}
	return g
}

// TestWalkerIncrementalMatchesGeneric checks every walker path against the
// generic one. A game whose valuer has a batch Walk, the same game with
// only Reset/Extend, one that hands out a nil valuer, and the game behind
// a plain MemberFunc must give bit-identical prefix-value vectors, forward
// and reversed, and bit-identical sampler output at 1 and 4 workers; each
// game must have run on its own path.
func TestWalkerIncrementalMatchesGeneric(t *testing.T) {
	const n = 12
	games := map[string]*testPrefixGame{
		"batch":  newTestPrefixGame(n),
		"extend": newTestPrefixGame(n),
		"nil":    newTestPrefixGame(n),
	}
	games["batch"].batch = true
	games["nil"].nilValuer = true
	generic := MemberFunc{Players: n, V: games["batch"].ValueMembers}

	ref := newPrefixWalker(generic)
	want, got := make([]float64, n), make([]float64, n)
	rng := stats.NewRand(5)
	for walk := 0; walk < 20; walk++ {
		perm := rng.Perm(n)
		for _, rev := range []bool{false, true} {
			ref.values(perm, rev, want)
			for name, g := range games {
				newPrefixWalker(g).values(perm, rev, got)
				for k := range want {
					if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
						t.Fatalf("%s walk %d rev=%v prefix %d: %.17g, generic %.17g", name, walk, rev, k+1, got[k], want[k])
					}
				}
			}
		}
	}

	for _, workers := range []int{1, 4} {
		opt := Options{Samples: 96, Seed: 9, Workers: workers}
		gen, err := approxShapley(generic, opt, nil)
		if err != nil {
			t.Fatal(err)
		}
		for name, g := range games {
			g.extends.Store(0)
			g.walks.Store(0)
			res, err := approxShapley(g, opt, nil)
			if err != nil {
				t.Fatal(err)
			}
			walks, extends := g.walks.Load(), g.extends.Load()
			if ran := map[string]bool{
				"batch": walks > 0 && extends == 0, "extend": walks == 0 && extends > 0, "nil": walks == 0 && extends == 0,
			}[name]; !ran {
				t.Fatalf("%s workers=%d: %d batch walks, %d extends", name, workers, walks, extends)
			}
			for i := range gen.Phi {
				if res.Phi[i] != gen.Phi[i] || res.CIHalf[i] != gen.CIHalf[i] {
					t.Fatalf("%s workers=%d player %d: %.17g ± %.17g, generic %.17g ± %.17g",
						name, workers, i, res.Phi[i], res.CIHalf[i], gen.Phi[i], gen.CIHalf[i])
				}
			}
		}
	}
}

// TestClassGamePrefixValuer walks random permutations through the
// collapsed game's incremental valuer and requires exact agreement with
// ValueMembers at every prefix under the per-step rule: a step the
// structure's Prefix evaluator certifies takes its value, and every other
// step reads the count-vector memo. Without an evaluator every step reads
// the memo; with one that certifies every step, the walk never calls
// Value.
func TestClassGamePrefixValuer(t *testing.T) {
	value := func(counts []int) float64 {
		// Submodular-ish nonlinear class game.
		v := 0.0
		for j, c := range counts {
			v += float64((j + 1) * c * (10 - c))
		}
		return v
	}
	for _, tc := range []struct {
		name    string
		certify func(total int) bool // nil: no evaluator
	}{
		{"memo only", nil},
		{"even steps certified", func(total int) bool { return total%2 == 0 }},
		{"every step certified", func(int) bool { return true }},
	} {
		var valueCalls, certified atomic.Int64
		cs := &ClassStructure{
			Mult:    []int{3, 4, 2},
			ClassOf: []int{0, 0, 0, 1, 1, 1, 1, 2, 2},
			Value: func(counts []int) float64 {
				valueCalls.Add(1)
				return value(counts)
			},
		}
		if tc.certify != nil {
			cs.Prefix = func() ClassPrefix {
				return &stubClassPrefix{counts: make([]int, 3), value: value, certify: tc.certify, certified: &certified}
			}
		}
		mg := cs.MemberGame()
		pg, ok := mg.(PrefixGame)
		if !ok {
			t.Fatal("collapsed game does not implement PrefixGame")
		}
		pv := pg.PrefixValuer()
		if pv == nil {
			t.Fatal("collapsed game returned a nil PrefixValuer")
		}
		rng := stats.NewRand(11)
		n := cs.N()
		walkCalls := int64(0)
		for walk := 0; walk < 50; walk++ {
			perm := rng.Perm(n)
			pv.Reset()
			for k := 1; k <= n; k++ {
				before := valueCalls.Load()
				got := pv.Extend(perm[k-1])
				walkCalls += valueCalls.Load() - before
				if want := mg.ValueMembers(perm[:k]); got != want {
					t.Fatalf("%s: walk %d prefix %d: incremental %.17g, direct %.17g", tc.name, walk, k, got, want)
				}
			}
		}
		switch tc.name {
		case "memo only":
			if walkCalls == 0 {
				t.Errorf("%s: the walk never reached Value", tc.name)
			}
		case "even steps certified":
			if certified.Load() == 0 || walkCalls == 0 {
				t.Errorf("%s: %d certified steps, %d Value calls; want both", tc.name, certified.Load(), walkCalls)
			}
		case "every step certified":
			if walkCalls != 0 {
				t.Errorf("%s: the walk called Value %d times", tc.name, walkCalls)
			}
		}
	}
}

// stubClassPrefix is a ClassPrefix certifying the steps whose count
// vector's total passes certify, valued by calling value itself.
type stubClassPrefix struct {
	counts    []int
	value     func([]int) float64
	certify   func(total int) bool
	certified *atomic.Int64
}

func (s *stubClassPrefix) Reset() { clear(s.counts) }

func (s *stubClassPrefix) Add(j int) (float64, bool) {
	s.counts[j]++
	total := 0
	for _, c := range s.counts {
		total += c
	}
	if !s.certify(total) {
		return 0, false
	}
	s.certified.Add(1)
	return s.value(s.counts), true
}
