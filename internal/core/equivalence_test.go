package core_test

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"fedshare/internal/coalition"
	"fedshare/internal/core"
	"fedshare/internal/economics"
	"fedshare/internal/scenario"
	"fedshare/internal/stats"
)

// prefixOnly exposes a model's incremental prefix path but not its class
// structure, so Values samples the model directly.
type prefixOnly struct{ m *core.Model }

func (g prefixOnly) N() int                               { return g.m.N() }
func (g prefixOnly) ValueMembers(members []int) float64   { return g.m.ValueMembers(members) }
func (g prefixOnly) PrefixValuer() coalition.PrefixValuer { return g.m.PrefixValuer() }

// stepOnly is prefixOnly with the valuer's batch Walk hidden, as a timing
// wrapper hides it: the sampler extends each prefix one step at a time.
type stepOnly struct{ prefixOnly }

func (g stepOnly) PrefixValuer() coalition.PrefixValuer {
	pv := g.m.PrefixValuer()
	if pv == nil {
		return nil
	}
	return struct{ coalition.PrefixValuer }{pv}
}

// memoOnly exposes a model's class structure without its incremental
// evaluator, so every step of a collapsed walk reads the count-vector memo,
// as a walk through ValueMembers does.
type memoOnly struct{ *core.Model }

func (g memoOnly) ClassStructure() *coalition.ClassStructure {
	cs := *g.Model.ClassStructure()
	cs.Prefix = nil
	return &cs
}

// overlapModel is distinctModel's linear federation over an explicit
// location universe, which hands out no incremental valuer.
func overlapModel(t *testing.T) *core.Model {
	t.Helper()
	m, err := distinctModel(t, 12, 1).WithOverlap(60, stats.NewRand(3))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// distinctModel is an n-facility federation of mutually different
// facilities. Shape 1 keeps every prefix step on the allocation fast path;
// a sublinear shape with bounded maxima sends steps through the greedy
// repair and fallback.
func distinctModel(t *testing.T, n int, shape float64) *core.Model {
	t.Helper()
	typ := economics.ExperimentType{
		Name: "e", MinLocations: 10, MaxLocations: math.Inf(1),
		Resources: 1, HoldingTime: 1, Shape: shape,
	}
	if shape != 1 {
		typ.MinLocations, typ.MaxLocations = 2, 6
	}
	wl, err := economics.NewWorkload(economics.DemandClass{Type: typ, Count: 40})
	if err != nil {
		t.Fatal(err)
	}
	fs := make([]core.Facility, n)
	for i := range fs {
		fs[i] = core.Facility{Name: fmt.Sprintf("F%d", i), Locations: 2 + i, Resources: float64(3 + i%13)}
	}
	m, err := core.NewModel(fs, wl)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// specModel builds the model of an example scenario spec.
func specModel(t *testing.T, id string) *core.Model {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "examples", "scenarios", id+".json"))
	if err != nil {
		t.Fatal(err)
	}
	s, err := scenario.ParseSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	m, err := s.Model()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestApproxIncrementalEquivalence is the equivalence gate of the
// incremental prefix path: fixed-seed sampled shares must be bit-identical
// whether the sampler values each walk in one batch call, extends each
// prefix incrementally (stepOnly) or evaluates it through ValueMembers
// (the same game wrapped in a MemberFunc, which offers no incremental
// path), on both allocation paths, an overlap model (no valuer: every
// path is ValueMembers) and the example federations, at any worker
// count. Templated models are also checked through their collapsed class
// game, whose walks take the solver's certified steps on the example
// federations and mix the certified repair with count-vector memo steps on
// the nonlinear templated model, against the same game with every step
// sent to the memo (memoOnly).
func TestApproxIncrementalEquivalence(t *testing.T) {
	models := map[string]*core.Model{
		"fast-distinct":       distinctModel(t, 24, 1),
		"greedy":              distinctModel(t, 18, 0.8),
		"hetero100":           specModel(t, "hetero100"),
		"hetero200":           specModel(t, "hetero200"),
		"templated-nonlinear": core.TemplatedNonlinearModel(t),
		"overlap":             overlapModel(t),
	}
	for name, m := range models {
		plain := coalition.MemberFunc{Players: m.N(), V: m.ValueMembers}
		cs := m.ClassStructure()
		for _, workers := range []int{1, 4} {
			label := fmt.Sprintf("%s workers=%d", name, workers)
			opt := coalition.Options{Method: coalition.MethodApprox, Samples: 96, Seed: 42, Workers: workers}
			inc, err := coalition.Values(prefixOnly{m}, opt)
			if err != nil {
				t.Fatal(err)
			}
			gen, err := coalition.Values(plain, opt)
			if err != nil {
				t.Fatal(err)
			}
			if inc.Method != coalition.EngineApprox || gen.Method != coalition.EngineApprox {
				t.Fatalf("%s: engines %q/%q, want %q", label, inc.Method, gen.Method, coalition.EngineApprox)
			}
			sameShares(t, label+" direct", inc.Phi, gen.Phi)
			step, err := coalition.Values(stepOnly{prefixOnly{m}}, opt)
			if err != nil {
				t.Fatal(err)
			}
			sameShares(t, label+" step", step.Phi, gen.Phi)
			if cs == nil || cs.K() == cs.N() {
				continue
			}
			incC, err := coalition.Values(m, opt)
			if err != nil {
				t.Fatal(err)
			}
			genC, err := coalition.Values(memoOnly{m}, opt)
			if err != nil {
				t.Fatal(err)
			}
			if incC.Method != coalition.EngineApproxCollapsed || genC.Method != coalition.EngineApproxCollapsed {
				t.Fatalf("%s: engines %q/%q, want %q", label, incC.Method, genC.Method, coalition.EngineApproxCollapsed)
			}
			sameShares(t, label+" collapsed", incC.Phi, genC.Phi)
		}
	}
}

func sameShares(t *testing.T, label string, got, want []float64) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: facility %d: incremental %.17g, generic %.17g", label, i, got[i], want[i])
		}
	}
}
