package core

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"fedshare/internal/allocation"
	"fedshare/internal/coalition"
	"fedshare/internal/combin"
	"fedshare/internal/economics"
	"fedshare/internal/stats"
)

// heteroModel builds an n-facility federation drawn from k facility
// templates (so it has exploitable symmetry), under a batch workload that
// keeps every coalition value nontrivial.
func heteroModel(t *testing.T, n, k int) *Model {
	t.Helper()
	wl, err := economics.NewWorkload(economics.DemandClass{
		Type: economics.ExperimentType{
			Name: "batch", MinLocations: 10, MaxLocations: math.Inf(1),
			Resources: 1, HoldingTime: 1, Shape: 1,
		},
		Count: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	fs := make([]Facility, n)
	for i := range fs {
		tpl := i % k
		fs[i] = Facility{
			Name:      "F" + string(rune('A'+tpl)) + "-" + string(rune('0'+i/k%10)),
			Locations: 5 + 3*tpl,
			Resources: 1 + 0.5*float64(tpl),
		}
		fs[i].Name = fsName(i, tpl)
	}
	m, err := NewModel(fs, wl)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func fsName(i, tpl int) string {
	return "F" + strings.Repeat("x", tpl+1) + "-" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26))
}

// TestValueMembersMatchesValue: every entry of a model's table is
// ValueMembers of its coalition's ascending member list, bit for bit — on
// heteroModel's d = 1 demand, on greedyModel's sublinear demand with
// bounded maxima and binding capacities, and on an overlap model, whose
// ValueMembers values the member set.
func TestValueMembersMatchesValue(t *testing.T) {
	m := heteroModel(t, 8, 3)
	overlap, err := heteroModel(t, 8, 3).WithOverlap(30, stats.NewRand(5))
	if err != nil {
		t.Fatal(err)
	}
	for name, mm := range map[string]*Model{"hetero": m, "greedy": greedyModel(t, 8), "overlap": overlap} {
		tab, err := mm.Table()
		if err != nil {
			t.Fatal(err)
		}
		for mask := combin.Set(1); mask < 1<<8; mask++ {
			members := mask.Members()
			if got, want := mm.ValueMembers(members), tab.Values[mask]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: coalition %v: ValueMembers %.12f vs table %.12f", name, members, got, want)
			}
		}
	}
	// Member order must not matter. This holds because heteroModel's
	// demand has d = 1, whose engine reads only a capacity histogram; the
	// greedy engine's Utility can change with class order.
	if m.ValueMembers([]int{3, 0, 6}) != m.ValueMembers([]int{6, 3, 0}) {
		t.Error("ValueMembers depends on member order")
	}
}

func TestClassStructureDetection(t *testing.T) {
	m := heteroModel(t, 12, 3)
	cs := m.ClassStructure()
	if cs == nil {
		t.Fatal("no structure detected on a templated federation")
	}
	if err := cs.Validate(); err != nil {
		t.Fatal(err)
	}
	if cs.K() != 3 {
		t.Fatalf("detected %d classes, want 3", cs.K())
	}
	if cs.N() != 12 {
		t.Fatalf("structure covers %d players, want 12", cs.N())
	}
	// The collapsed characteristic function must agree with the direct one
	// on every count vector reachable from a member list.
	counts := make([]int, 3)
	members := []int{0, 1, 3, 4, 6} // classes 0,1,0,1,0 under i%3 templating
	for _, p := range members {
		counts[cs.ClassOf[p]]++
	}
	if got, want := cs.Value(counts), m.ValueMembers(members); got != want {
		t.Errorf("collapsed V(%v) = %.12f, direct %.12f", counts, got, want)
	}
}

// TestClassStructureValueMatchesDirect is the differential test of the
// collapsed characteristic function: it solves one aggregated class per
// template, the direct one a class per facility in facility order, where
// the templates interleave. The two must agree bit-for-bit on random
// coalitions, under demand mixes that reach the analytic, fast and greedy
// engines.
func TestClassStructureValueMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	shapes := []float64{0.5, 0.7, 1, 1.3, 2}
	engines := map[string]int{}
	checked := 0
	for trial := 0; trial < 120; trial++ {
		tpls := make([]Facility, 2+rng.Intn(4))
		for j := range tpls {
			tpls[j] = Facility{
				Locations:    rng.Intn(9),
				Resources:    float64(1 + rng.Intn(4)),
				Availability: []float64{0, 0.5, 0.75, 1}[rng.Intn(4)],
			}
		}
		fs := make([]Facility, 6+rng.Intn(24))
		for i := range fs {
			fs[i] = tpls[rng.Intn(len(tpls))]
			fs[i].Name = fsName(i, i%3)
		}
		wl, err := economics.NewWorkload(randomDemand(rng, trial%3, shapes)...)
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewModel(fs, wl)
		if err != nil {
			t.Fatal(err)
		}
		cs := m.ClassStructure()
		if err := cs.Validate(); err != nil {
			t.Fatal(err)
		}
		counts := make([]int, cs.K())
		var members []int
		for c := 0; c < 60; c++ {
			members = members[:0]
			for j := range counts {
				counts[j] = 0
			}
			p := rng.Float64()
			for i := range fs {
				if rng.Float64() < p {
					members = append(members, i)
					counts[cs.ClassOf[i]]++
				}
			}
			if got, want := cs.Value(counts), m.ValueMembers(members); got != want {
				t.Fatalf("trial %d: collapsed V(%v) = %v, direct V(%v) = %v", trial, counts, got, members, want)
			}
			engines[solverFor(m, members)]++
			checked++
		}
	}
	for _, e := range []string{"analytic", "fast", "greedy"} {
		if engines[e] < 100 {
			t.Errorf("engine %s reached on %d coalitions, want at least 100 (%v)", e, engines[e], engines)
		}
	}
	t.Logf("%d coalitions agree bit-for-bit; engines %v", checked, engines)
}

// randomDemand draws a demand mix for one of the allocation engines:
// mode 0 is one homogeneous linear batch (analytic), mode 1 linear batches
// with mixed minima (fast), mode 2 mixed shapes and resources (greedy).
func randomDemand(rng *rand.Rand, mode int, shapes []float64) []economics.DemandClass {
	res := float64(1 + rng.Intn(3))
	n := 1
	if mode > 0 {
		n = 2 + rng.Intn(2)
	}
	out := make([]economics.DemandClass, n)
	for c := range out {
		typ := economics.ExperimentType{
			Name: fmt.Sprintf("e%d", c), MinLocations: float64(rng.Intn(12)),
			MaxLocations: math.Inf(1), Resources: res, HoldingTime: 1, Shape: 1,
		}
		if mode == 2 {
			typ.Resources = float64(1 + rng.Intn(3))
			typ.Shape = shapes[rng.Intn(len(shapes))]
		}
		out[c] = economics.DemandClass{Type: typ, Count: 1 + rng.Intn(4)}
	}
	return out
}

// solverFor names the allocation engine Solve dispatches to for the
// coalition's direct pool, by Solve's rule: uniform resources, shape 1 and
// no Max below the pool size select the linear engines, and identical
// minima on top of that the closed form.
func solverFor(m *Model, members []int) string {
	var pool allocation.Pool
	for _, i := range members {
		f := m.Facilities[i]
		pool.Classes = append(pool.Classes, allocation.Class{Count: f.Locations, Capacity: f.EffectiveCapacity()})
	}
	reqs := m.reqs
	L := pool.TotalLocations()
	sameMin := len(reqs) > 0
	for _, r := range reqs {
		if r.Shape != 1 || r.Resources != reqs[0].Resources || (r.Max > 0 && r.Max < L) {
			return "greedy"
		}
		sameMin = sameMin && r.Min == reqs[0].Min
	}
	if sameMin {
		return "analytic"
	}
	return "fast"
}

func TestClassStructureNilForOverlapModels(t *testing.T) {
	m := heteroModel(t, 6, 2)
	m.Overlap = [][]int{{0}, {1}, {2}, {3}, {4}, {5}}
	if m.ClassStructure() != nil {
		t.Error("overlap models must not report symmetry structure")
	}
}

func TestApproxPolicyMatchesExactSmall(t *testing.T) {
	// On a snapshot-eligible model the approx policy's auto dispatch must
	// return the exact kernel shares.
	m := fig4Model(t, 500, true)
	exact := shares(t, m, ShapleyPolicy{})
	approx := shares(t, m, ApproxShapleyPolicy{Samples: 50, Seed: 1})
	wantVec(t, approx, exact, 1e-9, "approx policy on small model")
}

func TestApproxPolicyCollapsesTemplatedFederation(t *testing.T) {
	// 30 facilities from 3 templates: 2^30 is out of kernel range but the
	// class lattice (11^3) is trivially exact. Dispatch must go exact-
	// collapsed, and within-template shares must be identical.
	m := heteroModel(t, 30, 3)
	res, err := ApproxShapleyPolicy{Seed: 1}.Result(m)
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != coalition.EngineExactCollapsed {
		t.Fatalf("engine %q, want %q", res.Method, coalition.EngineExactCollapsed)
	}
	sum := 0.0
	for _, p := range res.Phi {
		sum += p
	}
	vn := m.GrandValue()
	if math.Abs(sum-vn) > 1e-6*vn {
		t.Errorf("Σφ = %.9f, V(N) = %.9f", sum, vn)
	}
	for p := 3; p < 30; p++ {
		if res.Phi[p] != res.Phi[p%3] {
			t.Errorf("facilities %d and %d share a template but differ", p%3, p)
		}
	}
}

func TestLargeFederationBeyondBitmaskBound(t *testing.T) {
	// 80 pairwise-distinct facilities: NewModel must accept it, GrandValue
	// and shares must work through the member-list tier (no symmetry to
	// collapse, so this is the plain sampler), and the bitmask policies
	// must refuse cleanly instead of silently corrupting.
	m := heteroModel(t, 80, 80)
	vn := m.GrandValue()
	if vn <= 0 {
		t.Fatalf("V(N) = %g, want > 0", vn)
	}
	s, err := ApproxShapleyPolicy{Samples: 160, Seed: 2}.Shares(m)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("normalized shares sum to %.12f", sum)
	}
	// Past the 24-facility table bound the rules reading every coalition
	// must refuse up front: at 30 facilities a 2^30 enumeration would
	// otherwise start.
	for _, big := range []*Model{heteroModel(t, 30, 30), m} {
		for _, p := range []Policy{NucleolusPolicy{}, BanzhafPolicy{}, UserWeightedShapleyPolicy{}} {
			if _, err := p.Shares(big); err == nil || !strings.Contains(err.Error(), "shapley-approx") {
				t.Errorf("policy %s on %d facilities: got %v, want a refusal naming shapley-approx", p.Name(), big.N(), err)
			}
		}
		if _, err := Analyze(big); err == nil {
			t.Errorf("Analyze did not refuse a %d-facility model", big.N())
		}
		if _, err := big.Table(); err == nil || !strings.Contains(err.Error(), "24") {
			t.Errorf("Table on %d facilities: got %v, want a refusal naming the 24 bound", big.N(), err)
		}
	}
}

func TestShapleyPolicyAutoDispatchesLargeModels(t *testing.T) {
	// The default policy must keep working (via the approximation tier)
	// when the federation outgrows the snapshot bound.
	m := heteroModel(t, 40, 2)
	s := shares(t, m, ShapleyPolicy{})
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %.12f", sum)
	}
	// Two templates: exact collapse applies, so within-template equality
	// is exact.
	for p := 2; p < 40; p++ {
		if s[p] != s[p%2] {
			t.Errorf("facilities %d and %d share a template but differ", p%2, p)
		}
	}
}

func TestApproxPolicyRelativeCITarget(t *testing.T) {
	// A heterogeneous 26-facility federation with no two facilities alike:
	// no symmetry to collapse, so the CI-targeted sampler must run and
	// converge to 1% of V(N).
	wl, err := economics.NewWorkload(economics.DemandClass{
		Type: economics.ExperimentType{
			Name: "batch", MinLocations: 5, MaxLocations: math.Inf(1),
			Resources: 1, HoldingTime: 1, Shape: 1,
		},
		Count: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	fs := make([]Facility, 26)
	for i := range fs {
		fs[i] = Facility{Name: string(rune('A' + i)), Locations: 3 + i, Resources: 1 + float64(i)*0.1}
	}
	m, err := NewModel(fs, wl)
	if err != nil {
		t.Fatal(err)
	}
	p := ApproxShapleyPolicy{CITarget: 0.01, Seed: 3}
	res, err := p.Result(m)
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != coalition.EngineApprox {
		t.Fatalf("engine %q, want %q", res.Method, coalition.EngineApprox)
	}
	if !res.Converged {
		t.Fatalf("did not converge (%d samples)", res.Samples)
	}
	vn := m.GrandValue()
	for i, ci := range res.CIHalf {
		if ci > 0.01*vn {
			t.Errorf("facility %d: CI half-width %g above 1%% of V(N)=%g", i, ci, vn)
		}
	}
	if _, err := (ApproxShapleyPolicy{CITarget: -1}).Shares(m); err == nil {
		t.Error("negative CI target accepted")
	}
}
