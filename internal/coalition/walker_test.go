package coalition

import (
	"sync/atomic"
	"testing"

	"fedshare/internal/stats"
)

// testPrefixGame is an additive game (V = Σ weights) implementing
// PrefixGame, with a counter proving whether the incremental path ran.
type testPrefixGame struct {
	w       []float64
	extends atomic.Int64
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

func newTestPrefixGame(n int) *testPrefixGame {
	g := &testPrefixGame{w: make([]float64, n)}
	for i := range g.w {
		g.w[i] = float64(i%7) + 0.25
	}
	return g
}

// TestWalkerIncrementalMatchesGeneric requires bit-identical sampler
// output from a PrefixGame and from the same game behind a plain MemberFunc,
// which the walker can only evaluate through ValueMembers, and verifies
// each ran the intended path.
func TestWalkerIncrementalMatchesGeneric(t *testing.T) {
	for _, workers := range []int{1, 4} {
		g := newTestPrefixGame(12)
		opt := ApproxOptions{Samples: 96, Seed: 9, Workers: workers}
		inc, err := ApproxShapley(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		extends := g.extends.Load()
		if extends == 0 {
			t.Fatal("incremental path never ran on a PrefixGame")
		}
		gen, err := ApproxShapley(MemberFunc{Players: g.N(), V: g.ValueMembers}, opt)
		if err != nil {
			t.Fatal(err)
		}
		if g.extends.Load() != extends {
			t.Fatal("the MemberFunc wrapper still called Extend")
		}
		for i := range inc.Phi {
			if inc.Phi[i] != gen.Phi[i] {
				t.Fatalf("workers=%d player %d: incremental %.17g, generic %.17g",
					workers, i, inc.Phi[i], gen.Phi[i])
			}
			if inc.CIHalf[i] != gen.CIHalf[i] {
				t.Fatalf("workers=%d player %d: CI differs", workers, i)
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
