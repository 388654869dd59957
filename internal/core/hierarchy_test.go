package core

import (
	"math"
	"testing"

	"fedshare/internal/economics"
)

func hierDemand(t *testing.T, l float64) *economics.Workload {
	t.Helper()
	wl, err := economics.NewWorkload(economics.DemandClass{
		Type: economics.ExperimentType{
			Name: "e", MinLocations: l, MaxLocations: math.Inf(1),
			Resources: 1, HoldingTime: 1, Shape: 1,
		},
		Count: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return wl
}

func TestHierarchicalSharesConsistency(t *testing.T) {
	// PLE hosts two member testbeds; PLC and PLJ are monolithic. The
	// member shares within each authority must sum to the authority's
	// quotient-game Shapley share.
	groups := []AuthorityGroup{
		{Name: "PLC", Members: []Facility{{Name: "PLC", Locations: 100, Resources: 1}}},
		{Name: "PLE", Members: []Facility{
			{Name: "PLE-core", Locations: 250, Resources: 1},
			{Name: "G-Lab", Locations: 150, Resources: 1},
		}},
		{Name: "PLJ", Members: []Facility{{Name: "PLJ", Locations: 800, Resources: 1}}},
	}
	hs, err := HierarchicalShapley(groups, hierDemand(t, 500), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if hs.GrandValue != 1300 {
		t.Errorf("grand value %g", hs.GrandValue)
	}
	// Authority totals equal the flat 3-facility Shapley on aggregates
	// (quotient consistency): (4/39, 17/78, 53/78) from the Fig 4 setup.
	want := []float64{4.0 / 39, 17.0 / 78, 53.0 / 78}
	for i := range want {
		if math.Abs(hs.Authority[i]-want[i]) > 1e-9 {
			t.Errorf("authority %d share %g, want %g", i, hs.Authority[i], want[i])
		}
	}
	// Member shares sum to authority share.
	for gi := range groups {
		sum := 0.0
		for _, s := range hs.Member[gi] {
			sum += s
		}
		if math.Abs(sum-hs.Authority[gi]) > 1e-9 {
			t.Errorf("group %d member sum %g != authority %g", gi, sum, hs.Authority[gi])
		}
	}
	// Total is 1.
	total := 0.0
	for _, a := range hs.Authority {
		total += a
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("authority shares sum to %g", total)
	}
	// Within PLE, the larger member earns more.
	if hs.Member[1][0] <= hs.Member[1][1] {
		t.Errorf("PLE-core (250 locs) should out-earn G-Lab (150): %v", hs.Member[1])
	}
}

func TestHierarchicalMatchesFlatForSingletons(t *testing.T) {
	groups := []AuthorityGroup{
		{Name: "A", Members: []Facility{{Name: "A", Locations: 100, Resources: 1}}},
		{Name: "B", Members: []Facility{{Name: "B", Locations: 400, Resources: 1}}},
		{Name: "C", Members: []Facility{{Name: "C", Locations: 800, Resources: 1}}},
	}
	hs, err := HierarchicalShapley(groups, hierDemand(t, 500), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModel([]Facility{
		{Name: "A", Locations: 100, Resources: 1},
		{Name: "B", Locations: 400, Resources: 1},
		{Name: "C", Locations: 800, Resources: 1},
	}, hierDemand(t, 500))
	if err != nil {
		t.Fatal(err)
	}
	flat, err := ShapleyPolicy{}.Shares(m)
	if err != nil {
		t.Fatal(err)
	}
	for i := range flat {
		if math.Abs(hs.Authority[i]-flat[i]) > 1e-9 {
			t.Errorf("singleton hierarchy %v != flat %v", hs.Authority, flat)
		}
	}
}

func TestHierarchicalGroupingChangesMemberShares(t *testing.T) {
	// Two identical small testbeds: bargaining alone versus under one
	// authority umbrella yields different member payoffs.
	demand := hierDemand(t, 500)
	grouped := []AuthorityGroup{
		{Name: "U", Members: []Facility{
			{Name: "t1", Locations: 250, Resources: 1},
			{Name: "t2", Locations: 250, Resources: 1},
		}},
		{Name: "Big", Members: []Facility{{Name: "big", Locations: 800, Resources: 1}}},
	}
	hsGrouped, err := HierarchicalShapley(grouped, demand, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	separate := []AuthorityGroup{
		{Name: "T1", Members: []Facility{{Name: "t1", Locations: 250, Resources: 1}}},
		{Name: "T2", Members: []Facility{{Name: "t2", Locations: 250, Resources: 1}}},
		{Name: "Big", Members: []Facility{{Name: "big", Locations: 800, Resources: 1}}},
	}
	hsSeparate, err := HierarchicalShapley(separate, demand, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	diff := math.Abs(hsGrouped.Member[0][0] - hsSeparate.Authority[0])
	if diff < 1e-9 {
		t.Error("grouping should change a small testbed's share")
	}
}

func TestHierarchicalValidation(t *testing.T) {
	if _, err := HierarchicalShapley(nil, hierDemand(t, 0), 0, 1); err == nil {
		t.Error("empty group list must fail")
	}
	if _, err := HierarchicalShapley([]AuthorityGroup{{Name: "x"}}, hierDemand(t, 0), 0, 1); err == nil {
		t.Error("empty members must fail")
	}
}

func TestHierarchicalMonteCarloFallback(t *testing.T) {
	// 13 members in two blocks exceed the exact-enumeration budget; the
	// Monte-Carlo fallback must engage and stay efficient. At 30 members,
	// past the 24-member coalition-table bound, it must still work: it
	// evaluates only the coalitions its orderings visit.
	for _, size := range []struct{ a, b int }{{7, 6}, {16, 14}} {
		var a, b []Facility
		for i := 0; i < size.a; i++ {
			a = append(a, Facility{Name: "a", Locations: 10, Resources: 1})
		}
		for i := 0; i < size.b; i++ {
			b = append(b, Facility{Name: "b", Locations: 20, Resources: 1})
		}
		groups := []AuthorityGroup{{Name: "A", Members: a}, {Name: "B", Members: b}}
		hs, err := HierarchicalShapley(groups, hierDemand(t, 50), 3000, 9)
		if err != nil {
			t.Fatalf("%d members: %v", size.a+size.b, err)
		}
		total := 0.0
		for _, s := range hs.Authority {
			total += s
		}
		if math.Abs(total-1) > 0.02 {
			t.Errorf("%d members: MC hierarchy shares sum to %g", size.a+size.b, total)
		}
	}
}
