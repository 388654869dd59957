package core

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"fedshare/internal/allocation"
	"fedshare/internal/coalition"
	"fedshare/internal/combin"
	"fedshare/internal/economics"
	"fedshare/internal/stats"
)

// fig4Model builds the Sec. 4.1 setup: L = (100, 400, 800), R = 1, a single
// experiment with threshold l, linear utility, r = t = 1.
func fig4Model(t *testing.T, l float64, strict bool) *Model {
	t.Helper()
	wl, err := economics.NewWorkload(economics.DemandClass{
		Type: economics.ExperimentType{
			Name: "single", MinLocations: l, MaxLocations: math.Inf(1),
			Resources: 1, HoldingTime: 1, Shape: 1, Strict: strict,
		},
		Count: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModel([]Facility{
		{Name: "F1", Locations: 100, Resources: 1},
		{Name: "F2", Locations: 400, Resources: 1},
		{Name: "F3", Locations: 800, Resources: 1},
	}, wl)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func shares(t *testing.T, m *Model, p Policy) []float64 {
	t.Helper()
	s, err := p.Shares(m)
	if err != nil {
		t.Fatalf("%s: %v", p.Name(), err)
	}
	return s
}

func wantVec(t *testing.T, got, want []float64, tol float64, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: lengths %d vs %d", label, len(got), len(want))
	}
	for i := range got {
		if math.Abs(got[i]-want[i]) > tol {
			t.Fatalf("%s: got %v, want %v", label, got, want)
		}
	}
}

func TestPaperWorkedExampleStrict(t *testing.T) {
	// Sec. 4.1: at l = 500 the paper reports φ̂₂ = 2/13 and π̂₂ = 4/13.
	// The Shapley figure requires the strict threshold (x > l); see
	// EXPERIMENTS.md.
	m := fig4Model(t, 500, true)
	phi := shares(t, m, ShapleyPolicy{})
	wantVec(t, phi, []float64{1.0 / 26, 2.0 / 13, 21.0 / 26}, 1e-9, "strict Shapley at l=500")
	pi := shares(t, m, ProportionalPolicy{})
	wantVec(t, pi, []float64{1.0 / 13, 4.0 / 13, 8.0 / 13}, 1e-9, "proportional")
}

func TestPaperValueTableNonStrict(t *testing.T) {
	// The same section's value table (V({1,2}) = 500 etc.) uses the
	// non-strict threshold.
	m := fig4Model(t, 500, false)
	g, err := m.Table()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		s    combin.Set // bit i is facility i
		want float64
	}{
		{0b001, 0},
		{0b010, 0},
		{0b100, 800},
		{0b011, 500},
		{0b101, 900},
		{0b110, 1200},
		{0b111, 1300},
	}
	for _, c := range cases {
		if got := g.Values[c.s]; math.Abs(got-c.want) > 1e-9 {
			t.Errorf("V(%v) = %g, want %g", c.s, got, c.want)
		}
	}
}

func TestFig4Staircase(t *testing.T) {
	// l = 0: Shapley equals proportional (everyone's marginal contribution
	// is exactly their location count).
	m := fig4Model(t, 0, false)
	wantVec(t, shares(t, m, ShapleyPolicy{}),
		[]float64{1.0 / 13, 4.0 / 13, 8.0 / 13}, 1e-9, "l=0 Shapley == proportional")

	// 1200 < l <= 1300: only the grand coalition works -> equal shares.
	m = fig4Model(t, 1250, false)
	wantVec(t, shares(t, m, ShapleyPolicy{}),
		[]float64{1.0 / 3, 1.0 / 3, 1.0 / 3}, 1e-9, "grand-only equal shares")

	// l > 1300: no coalition serves the customer -> zero shares.
	m = fig4Model(t, 1350, false)
	wantVec(t, shares(t, m, ShapleyPolicy{}), []float64{0, 0, 0}, 0, "infeasible zero shares")

	// Proportional never moves with l.
	for _, l := range []float64{0, 300, 700, 1250, 1350} {
		m = fig4Model(t, l, false)
		wantVec(t, shares(t, m, ProportionalPolicy{}),
			[]float64{1.0 / 13, 4.0 / 13, 8.0 / 13}, 1e-9, "proportional invariant")
	}
}

func TestFig4MonotoneShareDrops(t *testing.T) {
	// As l crosses a facility's standalone threshold, its share drops.
	phiAt := func(l float64) []float64 {
		return shares(t, fig4Model(t, l, false), ShapleyPolicy{})
	}
	before, after := phiAt(50), phiAt(150) // crossing L1 = 100
	if after[0] >= before[0] {
		t.Errorf("facility 1 share should drop across l=100: %g -> %g", before[0], after[0])
	}
	before, after = phiAt(350), phiAt(450) // crossing L2 = 400
	if after[1] >= before[1] {
		t.Errorf("facility 2 share should drop across l=400: %g -> %g", before[1], after[1])
	}
	before, after = phiAt(750), phiAt(850) // crossing L3 = 800
	if after[2] >= before[2] {
		t.Errorf("facility 3 share should drop across l=800: %g -> %g", before[2], after[2])
	}
}

func TestAllPoliciesSumToOne(t *testing.T) {
	m := fig4Model(t, 500, false)
	for _, p := range []Policy{
		ShapleyPolicy{}, ProportionalPolicy{}, ConsumptionPolicy{},
		EqualPolicy{}, NucleolusPolicy{}, BanzhafPolicy{},
		ApproxShapleyPolicy{Samples: 500, Seed: 1, Method: coalition.MethodApprox},
	} {
		s := shares(t, m, p)
		sum := 0.0
		for _, v := range s {
			sum += v
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Errorf("%s shares sum to %g", p.Name(), sum)
		}
	}
}

func TestMonteCarloPolicyTracksExact(t *testing.T) {
	m := fig4Model(t, 500, false)
	exact := shares(t, m, ShapleyPolicy{})
	mc := shares(t, m, ApproxShapleyPolicy{Samples: 20000, Seed: 7, Method: coalition.MethodApprox})
	wantVec(t, mc, exact, 0.02, "MC vs exact Shapley")
}

func TestNucleolusPolicyFig4(t *testing.T) {
	// At l = 500 (non-strict) the core is the single point (100,400,800);
	// the nucleolus must hit it.
	m := fig4Model(t, 500, false)
	nuc := shares(t, m, NucleolusPolicy{})
	wantVec(t, nuc, []float64{100.0 / 1300, 400.0 / 1300, 800.0 / 1300}, 1e-6, "nucleolus")
}

func TestAnalyzeReport(t *testing.T) {
	m := fig4Model(t, 500, false)
	rep, err := Analyze(m)
	if err != nil {
		t.Fatal(err)
	}
	if rep.GrandValue != 1300 {
		t.Errorf("grand value %g", rep.GrandValue)
	}
	if !rep.Superadditive {
		t.Error("fig4 game at l=500 is superadditive")
	}
	if rep.Convex {
		t.Error("fig4 game at l=500 is not convex (V13+V23 > VN+V2)")
	}
	if !rep.CoreNonempty {
		t.Error("core is the point (100,400,800), nonempty")
	}
	if rep.LeastCoreEps > 1e-7 {
		t.Errorf("least-core epsilon %g should be <= 0", rep.LeastCoreEps)
	}
	if len(rep.CoalitionValue) != 7 {
		t.Errorf("report has %d coalitions, want 7", len(rep.CoalitionValue))
	}
	if v := rep.CoalitionValue["F2+F3"]; v != 1200 {
		t.Errorf("V(F2+F3) = %g", v)
	}
	if len(rep.Shares) != 4 {
		t.Errorf("default policies: got %d share vectors", len(rep.Shares))
	}
}

func TestConsumptionLowDemandFollowsDiversity(t *testing.T) {
	// Fig 8 intuition: low demand -> consumption proportional to location
	// counts (L_i/ΣL), not capacity (L_i·R_i/ΣL·R).
	wl, err := economics.NewWorkload(economics.DemandClass{
		Type: economics.ExperimentType{
			Name: "probe", MaxLocations: math.Inf(1), Resources: 1, HoldingTime: 1, Shape: 1,
		},
		Count: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModel([]Facility{
		{Name: "F1", Locations: 100, Resources: 80},
		{Name: "F2", Locations: 400, Resources: 60},
		{Name: "F3", Locations: 800, Resources: 20},
	}, wl)
	if err != nil {
		t.Fatal(err)
	}
	rho := shares(t, m, ConsumptionPolicy{})
	wantVec(t, rho, []float64{100.0 / 1300, 400.0 / 1300, 800.0 / 1300}, 0.01, "low-demand rho")
	// Proportional is very different.
	pi := shares(t, m, ProportionalPolicy{})
	total := 100.0*80 + 400*60 + 800*20
	wantVec(t, pi, []float64{8000 / total, 24000 / total, 16000 / total}, 1e-9, "pi")
}

// TestNormalizeByGrand: absolute shares divided by V(N) sum to 1 when
// they are efficient, and a federation that generates no value shares
// zeros.
func TestNormalizeByGrand(t *testing.T) {
	m := fig4Model(t, 500, false)
	res, err := coalition.Values(m, coalition.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, v := range normalizeByGrand(m, res.Phi) {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("normalized shares sum to %g", sum)
	}
	idle := fig4Model(t, 1400, false) // l above the federation's 1300 locations
	if v := idle.GrandValue(); v != 0 {
		t.Fatalf("V(N) = %g, want 0", v)
	}
	wantVec(t, normalizeByGrand(idle, []float64{0, 0, 0}), []float64{0, 0, 0}, 0, "zero-value federation")
}

func TestGameCaching(t *testing.T) {
	// The coalition table is materialized once and shared by every rule
	// on the model.
	m := fig4Model(t, 500, false)
	tab, err := m.Table()
	if err != nil {
		t.Fatal(err)
	}
	shares(t, m, ShapleyPolicy{})
	shares(t, m, BanzhafPolicy{})
	if again, _ := m.Table(); again != tab {
		t.Error("policies rebuilt the cached coalition table")
	}
}

func TestNewModelValidation(t *testing.T) {
	if _, err := NewModel(nil, nil); err == nil {
		t.Error("empty facility list must fail")
	}
	if _, err := NewModel([]Facility{{Name: "x", Locations: -1}}, nil); err == nil {
		t.Error("negative locations must fail")
	}
	if _, err := NewModel([]Facility{{Name: "x", Availability: 2}}, nil); err == nil {
		t.Error("availability > 1 must fail")
	}
	// A NaN would reach the allocation engine as a NaN capacity.
	if _, err := NewModel([]Facility{{Name: "x", Resources: math.NaN()}}, nil); err == nil {
		t.Error("NaN resources must fail")
	}
	if _, err := NewModel([]Facility{{Name: "x", Resources: 1, Availability: math.NaN()}}, nil); err == nil {
		t.Error("NaN availability must fail")
	}
	m, err := NewModel([]Facility{{Name: "x", Locations: 1, Resources: 1}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.GrandValue() != 0 {
		t.Error("no demand -> zero value")
	}
}

func TestAvailabilityScalesCapacity(t *testing.T) {
	f := Facility{Name: "x", Locations: 10, Resources: 4, Availability: 0.5}
	if f.EffectiveCapacity() != 2 {
		t.Errorf("effective capacity %g", f.EffectiveCapacity())
	}
	fDefault := Facility{Name: "y", Locations: 10, Resources: 4}
	if fDefault.EffectiveCapacity() != 4 {
		t.Errorf("default availability should be 1, capacity %g", fDefault.EffectiveCapacity())
	}
}

func TestOverlapModel(t *testing.T) {
	wl, err := economics.NewWorkload(economics.DemandClass{
		Type: economics.ExperimentType{
			Name: "probe", MaxLocations: math.Inf(1), Resources: 1, HoldingTime: 1, Shape: 1,
		},
		Count: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	mk := func() *Model {
		m, err := NewModel([]Facility{
			{Name: "A", Locations: 30, Resources: 1},
			{Name: "B", Locations: 30, Resources: 1},
		}, wl)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}

	// Tight universe forces heavy overlap: distinct locations < 60.
	m := mk()
	if _, err := m.WithOverlap(40, stats.NewRand(3)); err != nil {
		t.Fatal(err)
	}
	vTight := m.GrandValue()
	if vTight >= 60 || vTight < 30 {
		t.Errorf("overlapped union value %g outside (30, 60)", vTight)
	}

	// Huge universe: overlap nearly impossible, union ~60.
	m2 := mk()
	if _, err := m2.WithOverlap(100000, stats.NewRand(3)); err != nil {
		t.Fatal(err)
	}
	if v := m2.GrandValue(); v != 60 {
		t.Errorf("disjoint-ish union value %g, want 60", v)
	}

	// Value stays monotone with overlap.
	if m.value(combin.Singleton(0)) > m.value(combin.Full(2))+1e-9 {
		t.Error("overlap model broke monotonicity")
	}

	// Universe smaller than a facility is rejected.
	m3 := mk()
	if _, err := m3.WithOverlap(10, stats.NewRand(1)); err == nil {
		t.Error("universe smaller than facility must fail")
	}
}

func TestOverlapCapacityAdds(t *testing.T) {
	// Two single-location facilities forced onto the same location: the
	// pooled capacity should serve two capacity-1 experiments at that one
	// location, but diversity stays 1.
	wl, err := economics.NewWorkload(economics.DemandClass{
		Type: economics.ExperimentType{
			Name: "unit", MaxLocations: math.Inf(1), Resources: 1, HoldingTime: 1, Shape: 1,
		},
		Count: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModel([]Facility{
		{Name: "A", Locations: 1, Resources: 1},
		{Name: "B", Locations: 1, Resources: 1},
	}, wl)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.WithOverlap(1, stats.NewRand(1)); err != nil {
		t.Fatal(err)
	}
	// Both facilities cover location 0; capacity 2 there. Two experiments
	// of 1 location each -> V = 2.
	if v := m.GrandValue(); v != 2 {
		t.Errorf("grand value %g, want 2", v)
	}
}

// overlapFederation is n facilities of 5 locations each, placed at random
// on a universe of the given size, serving 20 experiments of at least 10
// locations.
func overlapFederation(t *testing.T, n, universe int) *Model {
	t.Helper()
	wl, err := economics.NewWorkload(economics.DemandClass{
		Type: economics.ExperimentType{
			Name: "e", MinLocations: 10, MaxLocations: math.Inf(1), Resources: 1, HoldingTime: 1, Shape: 1,
		},
		Count: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	fs := make([]Facility, n)
	for i := range fs {
		fs[i] = Facility{Name: fmt.Sprintf("F%d", i), Locations: 5, Resources: float64(1 + i%3)}
	}
	m, err := NewModel(fs, wl)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.WithOverlap(universe, stats.NewRand(uint64(n))); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestOverlapPoolClassOrder: an overlap pool lists its owner classes in
// descending mask order, the order a walk over every subset of the
// coalition meets them, and never walks those subsets: the grand value of
// 64 facilities, whose coalition has 2^64 subsets, is back in seconds.
func TestOverlapPoolClassOrder(t *testing.T) {
	m := overlapFederation(t, 10, 25)
	multi := 0
	for _, c := range m.poolFor(combin.Full(m.N())).pool.Classes {
		if strings.Contains(c.Label, ",") {
			multi++
		}
	}
	if multi < 3 {
		t.Fatalf("the grand pool has %d shared classes; the order check needs several", multi)
	}
	combin.AllCoalitions(m.N(), func(s combin.Set) bool {
		count := map[combin.Set]int{}
		owners := map[int]combin.Set{}
		for _, i := range s.Members() {
			for _, loc := range m.Overlap[i] {
				owners[loc] = owners[loc].With(i)
			}
		}
		for _, o := range owners {
			count[o]++
		}
		var want []allocation.Class
		combin.Subsets(s, func(o combin.Set) bool {
			if count[o] > 0 {
				want = append(want, allocation.Class{Label: o.String(), Count: count[o]})
			}
			return true
		})
		got := m.poolFor(s).pool.Classes
		if len(got) != len(want) {
			t.Fatalf("coalition %v: %d classes, want %d", s, len(got), len(want))
		}
		for c := range want {
			if got[c].Label != want[c].Label || got[c].Count != want[c].Count {
				t.Fatalf("coalition %v class %d: %s × %d, want %s × %d",
					s, c, got[c].Label, got[c].Count, want[c].Label, want[c].Count)
			}
		}
		return true
	})

	big := overlapFederation(t, combin.MaxPlayers, 400)
	done := make(chan float64, 1)
	go func() { done <- big.GrandValue() }()
	select {
	case v := <-done:
		if v <= 0 {
			t.Errorf("64-facility grand value %g, want positive", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("64-facility overlap grand value still running after 5 s")
	}
}

func TestProfits(t *testing.T) {
	m := fig4Model(t, 500, false)
	profits, err := Profits(m, ShapleyPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, p := range profits {
		sum += p
	}
	if math.Abs(sum-1300) > 1e-6 {
		t.Errorf("profits sum to %g, want V(N)=1300", sum)
	}
}

func BenchmarkFig4ShapleyPoint(b *testing.B) {
	wl, _ := economics.NewWorkload(economics.DemandClass{
		Type: economics.ExperimentType{
			Name: "single", MinLocations: 500, MaxLocations: math.Inf(1),
			Resources: 1, HoldingTime: 1, Shape: 1,
		},
		Count: 1,
	})
	for i := 0; i < b.N; i++ {
		m, _ := NewModel([]Facility{
			{Name: "F1", Locations: 100, Resources: 1},
			{Name: "F2", Locations: 400, Resources: 1},
			{Name: "F3", Locations: 800, Resources: 1},
		}, wl)
		_, _ = ShapleyPolicy{}.Shares(m)
	}
}

func TestUserWeightedShapleyPolicy(t *testing.T) {
	m := fig4Model(t, 500, false)
	// Without user counts, it coincides with plain Shapley.
	uw := shares(t, m, UserWeightedShapleyPolicy{})
	plain := shares(t, m, ShapleyPolicy{})
	wantVec(t, uw, plain, 1e-9, "default-weight user Shapley")

	// Weighted shares remain efficient regardless of weights (the l=500
	// game has a negative grand dividend, so the direction of the tilt is
	// game-dependent — only efficiency is universal).
	m.Facilities[0].Users = 100
	m.Facilities[1].Users = 1
	m.Facilities[2].Users = 1
	tilted := shares(t, m, UserWeightedShapleyPolicy{})
	sum := 0.0
	for _, s := range tilted {
		sum += s
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("weighted shares sum to %g", sum)
	}

	// Pure-synergy case (only the grand coalition has value): the dividend
	// splits exactly by user weight.
	m2 := fig4Model(t, 1250, false)
	m2.Facilities[0].Users = 100
	m2.Facilities[1].Users = 50
	m2.Facilities[2].Users = 50
	wantVec(t, shares(t, m2, UserWeightedShapleyPolicy{}),
		[]float64{0.5, 0.25, 0.25}, 1e-9, "synergy split by users")
}

// monotoneTable reports whether adding any player to any coalition never
// lowers the table's value: V(T \ {i}) <= V(T) for every T and i ∈ T.
func monotoneTable(t *coalition.Table) bool {
	for m := 1; m < len(t.Values); m++ {
		for rest := m; rest != 0; rest &= rest - 1 {
			if t.Values[m&^(rest&-rest)] > t.Values[m]+1e-9 {
				return false
			}
		}
	}
	return true
}

// TestModelMonotonicityProperties: the value function must be monotone in
// coalition membership, facility locations, and capacity — more resources
// can never reduce the servable utility.
func TestModelMonotonicityProperties(t *testing.T) {
	// Adding player 1 to {0} loses value: the check must notice.
	if nonMono, err := coalition.NewTable(2, []float64{0, 10, 2, 4}); err != nil || monotoneTable(nonMono) {
		t.Fatalf("monotoneTable accepted a non-monotone table (err %v)", err)
	}
	rng := stats.NewRand(113)
	for trial := 0; trial < 40; trial++ {
		l := float64(rng.Intn(20)) * 25
		k := 1 + rng.Intn(20)
		locs := []int{10 + rng.Intn(200), 10 + rng.Intn(400), 10 + rng.Intn(800)}
		caps := []float64{float64(1 + rng.Intn(5)), float64(1 + rng.Intn(5)), float64(1 + rng.Intn(5))}
		mk := func(locs []int, caps []float64) *Model {
			wl, err := economics.NewWorkload(economics.DemandClass{
				Type: economics.ExperimentType{
					Name: "e", MinLocations: l, MaxLocations: math.Inf(1),
					Resources: 1, HoldingTime: 1, Shape: 1,
				},
				Count: k,
			})
			if err != nil {
				t.Fatal(err)
			}
			m, err := NewModel([]Facility{
				{Name: "A", Locations: locs[0], Resources: caps[0]},
				{Name: "B", Locations: locs[1], Resources: caps[1]},
				{Name: "C", Locations: locs[2], Resources: caps[2]},
			}, wl)
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
		m := mk(locs, caps)
		g, err := m.Table()
		if err != nil {
			t.Fatal(err)
		}
		if !monotoneTable(g) {
			t.Fatalf("trial %d: value function not monotone (l=%g k=%d locs=%v caps=%v)",
				trial, l, k, locs, caps)
		}
		// Growing facility 0's locations never reduces V(N).
		before := m.GrandValue()
		bigger := append([]int(nil), locs...)
		bigger[0] += 50
		if after := mk(bigger, caps).GrandValue(); after < before-1e-9 {
			t.Fatalf("trial %d: adding locations reduced V(N): %g -> %g", trial, before, after)
		}
		// Growing facility 0's capacity never reduces V(N).
		richer := append([]float64(nil), caps...)
		richer[0]++
		if after := mk(locs, richer).GrandValue(); after < before-1e-9 {
			t.Fatalf("trial %d: adding capacity reduced V(N): %g -> %g", trial, before, after)
		}
	}
}
