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

// TestClassGamePrefixValuer walks random permutations, forward and
// reversed, through the walker of the collapsed game, which must find the
// valuer's batch Walk, and requires exact agreement with ValueMembers at
// every prefix: the structure's Prefix evaluator values the walk's leading
// certified steps, and every later step reads the count-vector memo, as
// every Extend does. Without an evaluator every step reads the memo; with
// one that certifies every step, the walk never calls Value.
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
		certify int // the leading steps the evaluator certifies; -1: no evaluator
	}{
		{"memo only", -1},
		{"first 4 certified", 4},
		{"every step certified", 9},
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
		if tc.certify >= 0 {
			cs.Prefix = func() ClassPrefix {
				return &stubClassPrefix{counts: make([]int, 3), value: value, certify: tc.certify, certified: &certified}
			}
		}
		mg := cs.MemberGame()
		w := newPrefixWalker(mg)
		if w.wv == nil {
			t.Fatalf("%s: the walker found no batch Walk on the collapsed game's valuer", tc.name)
		}
		rng := stats.NewRand(11)
		n := cs.N()
		vals := make([]float64, n)
		walkCalls := int64(0)
		for walk := 0; walk < 50; walk++ {
			perm := rng.Perm(n)
			for _, rev := range []bool{false, true} {
				before := valueCalls.Load()
				w.values(perm, rev, vals)
				walkCalls += valueCalls.Load() - before
				for k := range perm {
					members := perm[:k+1]
					if rev {
						members = perm[n-1-k:]
					}
					if want := mg.ValueMembers(members); vals[k] != want {
						t.Fatalf("%s: walk %d rev=%v prefix %d: walked %.17g, direct %.17g", tc.name, walk, rev, k+1, vals[k], want)
					}
				}
			}
			w.pv.Reset()
			for k, p := range perm {
				if got, want := w.pv.Extend(p), mg.ValueMembers(perm[:k+1]); got != want {
					t.Fatalf("%s: walk %d prefix %d: Extend %.17g, direct %.17g", tc.name, walk, k+1, got, want)
				}
			}
		}
		switch tc.name {
		case "memo only":
			if walkCalls == 0 {
				t.Errorf("%s: the walk never reached Value", tc.name)
			}
		case "first 4 certified":
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

// stubClassPrefix is a ClassPrefix certifying a walk's first certify
// steps, each valued by calling value itself.
type stubClassPrefix struct {
	counts    []int
	value     func([]int) float64
	certify   int
	certified *atomic.Int64
}

func (s *stubClassPrefix) WalkCertified(classes []int, vals []float64) int {
	clear(s.counts)
	n := min(s.certify, len(classes))
	for k, j := range classes[:n] {
		s.counts[j]++
		vals[k] = s.value(s.counts)
	}
	s.certified.Add(int64(n))
	return n
}
