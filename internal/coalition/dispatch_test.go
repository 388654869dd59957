package coalition

import (
	"math"
	"math/bits"
	"strings"
	"testing"

	"fedshare/internal/combin"
)

// structuredMemberGame pairs a large synthetic member game with its class
// structure for dispatcher tests.
type structuredMemberGame struct {
	MemberGame
	st *ClassStructure
}

func (g structuredMemberGame) ClassStructure() *ClassStructure { return g.st }

// bigClassGame builds an n-player game of k interchangeable classes exposed
// via the ClassStructured interface.
func bigClassGame(n, k int) structuredMemberGame {
	classOf := make([]int, n)
	mult := make([]int, k)
	for p := range classOf {
		classOf[p] = p % k
		mult[p%k]++
	}
	value := func(counts []int) float64 {
		total := 0.0
		for j, c := range counts {
			total += float64(j+1) * float64(c)
		}
		return math.Pow(total, 0.9)
	}
	st := &ClassStructure{Mult: mult, ClassOf: classOf, Value: value}
	return structuredMemberGame{MemberGame: st.MemberGame(), st: st}
}

func TestValuesPicksKernelForSmallGames(t *testing.T) {
	tab := randomMonotoneTable(t, 8, 5)
	res, err := Values(tableGame{tab}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != EngineKernel {
		t.Fatalf("method %q, want %q", res.Method, EngineKernel)
	}
	exact := BatchedValues(tab, 1).Shapley
	for i := range exact {
		if res.Phi[i] != exact[i] {
			t.Errorf("player %d: %g vs kernel %g", i, res.Phi[i], exact[i])
		}
	}
	if res.CIHalf != nil || res.Samples != 0 || !res.Converged {
		t.Errorf("unexpected kernel result metadata: %+v", res)
	}
}

func TestValuesPicksExactCollapsed(t *testing.T) {
	g := bigClassGame(60, 3) // 2^60 infeasible, 21^3 states trivial
	res, err := Values(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != EngineExactCollapsed {
		t.Fatalf("method %q, want %q", res.Method, EngineExactCollapsed)
	}
	want := exactShapley(g.st)
	for i := range want {
		if res.Phi[i] != want[i] {
			t.Errorf("player %d: %g vs exact collapsed %g", i, res.Phi[i], want[i])
		}
	}
}

func TestValuesPicksApproxCollapsed(t *testing.T) {
	g := bigClassGame(120, 8) // 16^8 ≈ 4·10^9 states: beyond the exact lattice
	res, err := Values(g, Options{Samples: 240, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != EngineApproxCollapsed {
		t.Fatalf("method %q, want %q", res.Method, EngineApproxCollapsed)
	}
	if res.CIHalf == nil || res.Samples == 0 {
		t.Errorf("missing sampling metadata: %+v", res)
	}
	// Interchangeable players must be pooled: identical shares in-class.
	for p := 8; p < 120; p++ {
		if res.Phi[p] != res.Phi[p%8] {
			t.Errorf("players %d and %d share a class but differ", p%8, p)
		}
	}
}

func TestValuesPicksPlainApproxWithoutStructure(t *testing.T) {
	g, _ := sumWeightGame(40, 2)
	res, err := Values(g, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != EngineApprox {
		t.Fatalf("method %q, want %q", res.Method, EngineApprox)
	}
	if res.Samples < DefaultApproxSamples {
		t.Errorf("default budget not applied: %d samples", res.Samples)
	}
}

// TestValuesRejectsInvalidClassStructure: Values validates a game's class
// structure once, before either collapsed engine, so every method returns
// the Validate error instead of running on a broken partition (the sampler
// used to index Groups by the unknown class and panic), or on a partition
// of fewer players than the game has (both engines returned that many
// shares).
func TestValuesRejectsInvalidClassStructure(t *testing.T) {
	classOf := func(mod, bad int) []int {
		out := make([]int, 30)
		for p := range out {
			out[p] = p % mod
		}
		out[29] = bad
		return out
	}
	for _, tc := range []struct {
		name string
		cs   ClassStructure
		want string
	}{
		{"unknown class", ClassStructure{Mult: []int{15, 15}, ClassOf: classOf(2, 5)}, "unknown class 5"},
		{"miscounted class", ClassStructure{Mult: []int{15, 15}, ClassOf: classOf(2, 0)}, "assigned players"},
		{"sum mismatch", ClassStructure{Mult: []int{15, 14}, ClassOf: classOf(2, 1)}, "sum to 29"},
		{"zero mult", ClassStructure{Mult: []int{30, 0}, ClassOf: classOf(1, 0)}, "non-positive multiplicity"},
		{"fewer players", ClassStructure{Mult: []int{10, 10}, ClassOf: classOf(2, 1)[:20]}, "20 players, game has 30"},
	} {
		tc.cs.Value = func(counts []int) float64 { return float64(counts[0]) }
		g := structuredMemberGame{MemberGame: MemberFunc{Players: 30, V: func(m []int) float64 { return float64(len(m)) }}, st: &tc.cs}
		for _, m := range []Method{MethodAuto, MethodExact, MethodApprox} {
			if _, err := Values(g, Options{Method: m, Samples: 60, Seed: 1}); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s, method %s: error %v, want substring %q", tc.name, m, err, tc.want)
			}
		}
	}
}

func TestValuesMethodExactErrorsWhenInfeasible(t *testing.T) {
	g, _ := sumWeightGame(40, 2)
	if _, err := Values(g, Options{Method: MethodExact}); err == nil ||
		!strings.Contains(err.Error(), "no exact engine") {
		t.Errorf("expected infeasibility error, got %v", err)
	}
}

func TestValuesMethodApproxForcesSamplingOnSmallGames(t *testing.T) {
	tab := randomMonotoneTable(t, 6, 9)
	res, err := Values(tableGame{tab}, Options{Method: MethodApprox, Samples: 5000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != EngineApprox {
		t.Fatalf("method %q, want %q", res.Method, EngineApprox)
	}
	exact := BatchedValues(tab, 1).Shapley
	for i := range exact {
		if diff := math.Abs(res.Phi[i] - exact[i]); diff > 5*res.CIHalf[i]+1e-9 {
			t.Errorf("player %d: %g vs exact %g", i, res.Phi[i], exact[i])
		}
	}
}

func TestValuesUnknownMethod(t *testing.T) {
	g, _ := sumWeightGame(4, 1)
	if _, err := Values(g, Options{Method: "banzhaf"}); err == nil ||
		!strings.Contains(err.Error(), "unknown method") {
		t.Errorf("expected unknown-method error, got %v", err)
	}
}

func TestValuesEmptyGame(t *testing.T) {
	g := MemberFunc{Players: 0, V: func([]int) float64 { return 0 }}
	res, err := Values(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Phi) != 0 || !res.Converged {
		t.Errorf("unexpected empty result %+v", res)
	}
}

// panicGame is an 8-player additive game whose characteristic function
// panics on the one coalition {0, 2, 4, 5, 7}. Its table, like
// core.Model's, is snapshotted on four workers.
type panicGame struct{}

func (panicGame) N() int { return 8 }

func (panicGame) value(s combin.Set) float64 {
	if s == 0b10110101 {
		panic("bad coalition")
	}
	return float64(bits.OnesCount64(uint64(s)))
}

func (g panicGame) ValueMembers(members []int) float64 { return g.value(setOf(members)) }

func (g panicGame) Table() (*Table, error) { return Snapshot(8, g.value, 4) }

// TestValuesRelaysWorkerPanics requires a panic on a worker goroutine of
// the exact engine's snapshot and of the sampler to reach Values' caller,
// where a recover sees it, instead of ending the process.
func TestValuesRelaysWorkerPanics(t *testing.T) {
	for _, m := range []Method{MethodExact, MethodApprox} {
		func() {
			defer func() {
				if r := recover(); r != "bad coalition" {
					t.Errorf("%s: recovered %v, want the game's panic", m, r)
				}
			}()
			Values(panicGame{}, Options{Method: m, Workers: 4, Samples: 2000, Seed: 1})
		}()
	}
}
