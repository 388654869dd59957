package core

import (
	"math"
	"testing"

	"fedshare/internal/allocation"
	"fedshare/internal/economics"
	"fedshare/internal/market"
)

// auctionDemand is a demand class for the auction tests; max 0 means
// unbounded.
func auctionDemand(name string, count int, min, max, shape, resources float64) economics.DemandClass {
	if max == 0 {
		max = math.Inf(1)
	}
	return economics.DemandClass{
		Type: economics.ExperimentType{
			Name: name, MinLocations: min, MaxLocations: max,
			Resources: resources, HoldingTime: 1, Shape: shape,
		},
		Count: count,
	}
}

func auctionModel(t *testing.T, fs []Facility, classes ...economics.DemandClass) *Model {
	t.Helper()
	wl, err := economics.NewWorkload(classes...)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModel(fs, wl)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// directAuction runs the combinatorial auction on a pool built by hand —
// one class per facility with locations, in facility order — and hands
// each class's revenue share to its facility.
func directAuction(t *testing.T, fs []Facility, bids []market.Bid) ([]float64, *market.AuctionResult) {
	t.Helper()
	var pool allocation.Pool
	var owner []int
	for i, f := range fs {
		if f.Locations > 0 {
			pool.Classes = append(pool.Classes, allocation.Class{Label: f.Name, Count: f.Locations, Capacity: f.Resources})
			owner = append(owner, i)
		}
	}
	res, err := market.RunCombinatorial(pool, bids)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, len(fs))
	for c, s := range market.Shares(res.RevenueByClass) {
		out[owner[c]] = s
	}
	return out, res
}

// checkAuction compares AuctionPolicy with the direct computation and
// requires the shares to sum to 1 whenever the auction collects revenue.
func checkAuction(t *testing.T, label string, m *Model, bids []market.Bid) *market.AuctionResult {
	t.Helper()
	got := shares(t, m, AuctionPolicy{})
	want, res := directAuction(t, m.Facilities, bids)
	wantVec(t, got, want, 1e-12, label)
	if res.Welfare > 0 {
		sum := 0.0
		for _, s := range got {
			sum += s
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s: shares %v sum to %g", label, got, sum)
		}
	}
	return res
}

func TestAuctionPolicyFigMarket(t *testing.T) {
	// The fig-market model: the single experiment bids for all 1300
	// locations whatever its threshold, and revenue follows the
	// diversity profile L_i / ΣL.
	for _, l := range []float64{0, 700, 1300} {
		m := fig4Model(t, l, false)
		checkAuction(t, "fig-market", m, []market.Bid{market.NewBid("exp", 1300, 1, 1)})
		wantVec(t, shares(t, m, AuctionPolicy{}), []float64{100.0 / 1300, 400.0 / 1300, 800.0 / 1300}, 1e-12, "fig-market profile")
	}
}

func TestAuctionPolicyBoundedBids(t *testing.T) {
	// The spread experiment's 900-location bid has the higher density and
	// wins first; neither 600-location bid then fits the 1300 locations.
	fs := []Facility{
		{Name: "F1", Locations: 100, Resources: 1},
		{Name: "F2", Locations: 400, Resources: 1},
		{Name: "F3", Locations: 800, Resources: 1},
	}
	m := auctionModel(t, fs,
		auctionDemand("wide", 2, 500, 600, 1, 1),
		auctionDemand("spread", 1, 300, 900, 1.2, 1))
	res := checkAuction(t, "bounded", m, []market.Bid{
		market.NewBid("wide", 600, 1, 1),
		market.NewBid("wide", 600, 1, 1),
		market.NewBid("spread", 900, 1.2, 1),
	})
	if res.Winning[0] || res.Winning[1] || !res.Winning[2] {
		t.Errorf("winners %v, want only the spread bid", res.Winning)
	}
}

func TestAuctionPolicyUnservableRequestDoesNotBid(t *testing.T) {
	fs := []Facility{
		{Name: "F1", Locations: 100, Resources: 1},
		{Name: "F2", Locations: 400, Resources: 1},
		{Name: "F3", Locations: 800, Resources: 1},
	}
	m := auctionModel(t, fs,
		auctionDemand("small", 1, 0, 100, 1, 1),
		auctionDemand("huge", 1, 2000, 0, 2, 1))
	checkAuction(t, "unservable", m, []market.Bid{market.NewBid("small", 100, 1, 1)})
	// Had it bid for the whole pool, the huge request would have won it.
	withHuge, _ := directAuction(t, fs, []market.Bid{
		market.NewBid("small", 100, 1, 1),
		market.NewBid("huge", 1300, 2, 1),
	})
	if got := shares(t, m, AuctionPolicy{}); math.Abs(got[2]-withHuge[2]) < 1e-9 {
		t.Errorf("shares %v match the auction the huge request joins", got)
	}
}

func TestAuctionPolicyZeroLocationFacility(t *testing.T) {
	fs := []Facility{
		{Name: "F1", Locations: 0, Resources: 1},
		{Name: "F2", Locations: 400, Resources: 1},
		{Name: "F3", Locations: 800, Resources: 1},
	}
	m := auctionModel(t, fs, auctionDemand("single", 1, 0, 0, 1, 1))
	checkAuction(t, "zero locations", m, []market.Bid{market.NewBid("single", 1200, 1, 1)})
	if got := shares(t, m, AuctionPolicy{}); got[0] != 0 {
		t.Errorf("facility without locations earns %g", got[0])
	}
}

func TestAuctionPolicyOverlapSplitsByCapacity(t *testing.T) {
	// A covers locations 0-2 at capacity 1, B covers 2-3 at capacity 3:
	// location 2 is one class of capacity 4, owned 1/4 by A and 3/4 by B.
	m := auctionModel(t, []Facility{
		{Name: "A", Locations: 3, Resources: 1},
		{Name: "B", Locations: 2, Resources: 3},
	}, auctionDemand("probe", 1, 0, 0, 1, 1))
	m.Overlap = [][]int{{0, 1, 2}, {2, 3}}
	pool := allocation.Pool{Classes: []allocation.Class{
		{Label: "A", Count: 2, Capacity: 1},
		{Label: "B", Count: 1, Capacity: 3},
		{Label: "A+B", Count: 1, Capacity: 4},
	}}
	res, err := market.RunCombinatorial(pool, []market.Bid{market.NewBid("probe", 4, 1, 1)})
	if err != nil {
		t.Fatal(err)
	}
	s := market.Shares(res.RevenueByClass)
	want := []float64{s[0] + s[2]/4, s[1] + s[2]*3/4}
	got := shares(t, m, AuctionPolicy{})
	wantVec(t, got, want, 1e-12, "overlap")
	// One unit is consumed at each of the four locations.
	wantVec(t, got, []float64{2.0/4 + 1.0/16, 1.0/4 + 3.0/16}, 1e-12, "overlap closed form")
}

func TestAuctionPolicyNoWinner(t *testing.T) {
	// Two resource units per location exceed every location's capacity.
	fs := []Facility{
		{Name: "F1", Locations: 100, Resources: 1},
		{Name: "F2", Locations: 400, Resources: 1},
		{Name: "F3", Locations: 800, Resources: 1},
	}
	m := auctionModel(t, fs, auctionDemand("heavy", 1, 0, 0, 1, 2))
	res := checkAuction(t, "no winner", m, []market.Bid{market.NewBid("heavy", 1300, 1, 2)})
	if res.Winning[0] {
		t.Fatal("the heavy bid must lose")
	}
	wantVec(t, shares(t, m, AuctionPolicy{}), []float64{0, 0, 0}, 0, "no winner")
}

func TestPolicyByNameResolvesEveryName(t *testing.T) {
	for _, name := range PolicyNames() {
		p, err := PolicyByName(name)
		if err != nil || p.Name() != name {
			t.Errorf("PolicyByName(%q) = %v, %v", name, p, err)
		}
	}
	if p, err := PolicyByName(""); err != nil || p.Name() != "shapley" {
		t.Errorf(`PolicyByName("") = %v, %v; want shapley`, p, err)
	}
	if _, err := PolicyByName("dictator"); err == nil {
		t.Error("unknown policy must be rejected")
	}
}
