package planetlab

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

func testAuthority(t *testing.T, sites, nodesPerSite, capacity int) *Authority {
	t.Helper()
	a := NewAuthority("test")
	for s := 0; s < sites; s++ {
		site := &Site{ID: fmt.Sprintf("site%d", s), Name: fmt.Sprintf("Site %d", s)}
		for n := 0; n < nodesPerSite; n++ {
			site.Nodes = append(site.Nodes, Node{
				ID:       fmt.Sprintf("node%d", n),
				HostName: fmt.Sprintf("n%d.s%d.example.org", n, s),
				Capacity: capacity,
			})
		}
		if err := a.AddSite(site); err != nil {
			t.Fatal(err)
		}
	}
	return a
}

// reserveSlivers places count slivers at one site through
// Reserve's per-site step, which checks the room of each node rather than
// the site's net free slots, so it differs from the walk's filter on
// oversubscribed nodes.
func (a *Authority) reserveSlivers(siteID string, count int) ([]Sliver, error) {
	if count <= 0 {
		return nil, fmt.Errorf("planetlab: sliver count must be positive")
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	sl := a.index[siteID]
	if sl == nil {
		return nil, fmt.Errorf("planetlab: %s has no site %s", a.Name, siteID)
	}
	placed, ok := sl.reserve(nil, count)
	if !ok {
		return nil, fmt.Errorf("planetlab: site %s has insufficient capacity for %d slivers", siteID, count)
	}
	return placed, nil
}

func TestAddSiteValidation(t *testing.T) {
	a := NewAuthority("x")
	if err := a.AddSite(&Site{}); err == nil {
		t.Error("empty site ID must fail")
	}
	if err := a.AddSite(&Site{ID: "s1"}); err != nil {
		t.Fatal(err)
	}
	if err := a.AddSite(&Site{ID: "s1"}); err == nil {
		t.Error("duplicate site ID must fail")
	}
	if a.SiteCount() != 1 {
		t.Errorf("SiteCount = %d", a.SiteCount())
	}
	// Two nodes with one ID would share a load counter.
	dup := &Site{ID: "s2", Nodes: []Node{{ID: "n", Capacity: 1}, {ID: "n", Capacity: 1}}}
	if err := a.AddSite(dup); err == nil {
		t.Error("duplicate node ID within a site must fail")
	}
	// The authority keeps its own node list: changing the caller's after
	// AddSite reaches neither placement nor accounting.
	s3 := &Site{ID: "s3", Nodes: []Node{{ID: "n0", Capacity: 1}, {ID: "n1", Capacity: 1}}}
	if err := a.AddSite(s3); err != nil {
		t.Fatal(err)
	}
	s3.Nodes[0].ID = "n1"
	s3.Nodes = s3.Nodes[:1]
	if svs, err := a.reserveSlivers("s3", 2); err != nil || svs[0].NodeID != "n0" || svs[1].NodeID != "n1" {
		t.Errorf("reserveSlivers after the caller's edit = %v, %v", svs, err)
	}
	if a.SiteFree("s3") != 0 || a.Utilization() != 1 {
		t.Errorf("SiteFree(s3) = %d, Utilization = %g after filling s3", a.SiteFree("s3"), a.Utilization())
	}
}

// TestNodeKeysDoNotCollide: site "a/b" with node "c" and site "a" with
// node "b/c" are two nodes, so filling one leaves the other free. A ledger
// keyed by "site/node" strings gave both the key "a/b/c".
func TestNodeKeysDoNotCollide(t *testing.T) {
	a := NewAuthority("x")
	for _, s := range []*Site{
		{ID: "a/b", Nodes: []Node{{ID: "c", Capacity: 1}}},
		{ID: "a", Nodes: []Node{{ID: "b/c", Capacity: 1}}},
	} {
		if err := a.AddSite(s); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.reserveSlivers("a/b", 1); err != nil {
		t.Fatal(err)
	}
	if free := a.SiteFree("a"); free != 1 {
		t.Errorf("site a has %d free slots after filling site a/b, want 1", free)
	}
	if _, err := a.reserveSlivers("a", 1); err != nil {
		t.Errorf("site a must still host a sliver: %v", err)
	}
}

// TestLedgerMatchesOracle runs seeded random sequences of AddSite,
// per-site reserves, Reserve walks, ReleaseSlivers (including
// already-freed and unknown slivers) and RestoreSlivers against the
// Authority and the map-keyed oracle ledger it replaced, and requires
// every answer to be equal. Restores oversubscribe nodes, where the
// walk's net-free filter and the per-site room check differ.
func TestLedgerMatchesOracle(t *testing.T) {
	siteIDs := []string{"s3", "s0", "s7", "s1", "s5", "s2", "s6", "s4"}
	nodeIDs := []string{"c", "a", "d", "b"}
	for seed := int64(1); seed <= 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a, o := NewAuthority("x"), newOracleLedger()
		var known []string // IDs of the sites added so far
		var held []Sliver
		randomSliver := func() Sliver {
			// Unknown nodes are never added later, so the oracle's entries
			// for them stay unobservable, as the Authority's skip does.
			switch rng.Intn(8) {
			case 0:
				return Sliver{SiteID: "zz", NodeID: "a"}
			case 1:
				return Sliver{SiteID: siteIDs[rng.Intn(len(siteIDs))], NodeID: "q"}
			}
			if len(held) > 0 && rng.Intn(2) == 0 {
				return held[rng.Intn(len(held))]
			}
			if len(known) == 0 {
				return Sliver{SiteID: "zz", NodeID: "b"}
			}
			return Sliver{SiteID: known[rng.Intn(len(known))], NodeID: nodeIDs[rng.Intn(len(nodeIDs))]}
		}
		for step := 0; step < 300; step++ {
			op := ""
			switch r := rng.Intn(10); {
			case r == 0 || len(known) == 0:
				op = "add" // any ID, so duplicates are tried too
				id := siteIDs[rng.Intn(len(siteIDs))]
				site := &Site{ID: id}
				for _, j := range rng.Perm(len(nodeIDs))[:1+rng.Intn(len(nodeIDs))] {
					site.Nodes = append(site.Nodes, Node{ID: nodeIDs[j], Capacity: rng.Intn(5)})
				}
				errA, errO := a.AddSite(site), o.AddSite(site)
				if (errA == nil) != (errO == nil) {
					t.Fatalf("seed %d step %d: AddSite(%s) = %v, oracle %v", seed, step, id, errA, errO)
				}
				if errA == nil {
					known = append(known, id)
				}
			case r <= 3:
				op = "reserve"
				id := "zz"
				if rng.Intn(10) > 0 {
					id = known[rng.Intn(len(known))]
				}
				count := rng.Intn(6)
				svA, errA := a.reserveSlivers(id, count)
				svO, errO := o.ReserveSlivers(id, count)
				if (errA == nil) != (errO == nil) || !reflect.DeepEqual(svA, svO) {
					t.Fatalf("seed %d step %d: reserveSlivers(%s, %d) = %v, %v; oracle %v, %v", seed, step, id, count, svA, errA, svO, errO)
				}
				held = append(held, svA...)
			case r <= 5:
				op = "walk"
				per, maxSites := rng.Intn(5), rng.Intn(4)
				svA, svO := a.Reserve(per, maxSites), o.Reserve(per, maxSites)
				if !reflect.DeepEqual(svA, svO) {
					t.Fatalf("seed %d step %d: Reserve(%d, %d) = %v; oracle %v", seed, step, per, maxSites, svA, svO)
				}
				held = append(held, svA...)
			case r <= 8:
				op = "release"
				var rel []Sliver
				for k := rng.Intn(5); k > 0; k-- {
					rel = append(rel, randomSliver())
				}
				a.ReleaseSlivers(rel)
				o.ReleaseSlivers(rel)
			default:
				op = "restore"
				var res []Sliver
				for k := rng.Intn(4); k > 0; k-- {
					res = append(res, randomSliver())
				}
				a.RestoreSlivers(res)
				o.RestoreSlivers(res)
			}
			for _, id := range append(siteIDs, "zz") {
				if got, exp := a.SiteFree(id), o.SiteFree(id); got != exp {
					t.Fatalf("seed %d step %d (%s): SiteFree(%s) = %d, oracle %d", seed, step, op, id, got, exp)
				}
			}
			if got, exp := a.Utilization(), o.Utilization(); got != exp {
				t.Fatalf("seed %d step %d (%s): Utilization = %g, oracle %g", seed, step, op, got, exp)
			}
		}
	}
}

func TestReserveSliversLeastLoaded(t *testing.T) {
	a := testAuthority(t, 1, 3, 2)
	// Six single-sliver reservations must spread 2-2-2 over the 3 nodes.
	perNode := map[string]int{}
	for i := 0; i < 6; i++ {
		svs, err := a.reserveSlivers("site0", 1)
		if err != nil {
			t.Fatal(err)
		}
		perNode[svs[0].NodeID]++
	}
	for node, n := range perNode {
		if n != 2 {
			t.Errorf("node %s has %d slivers, want 2", node, n)
		}
	}
	// Seventh fails: site full.
	if _, err := a.reserveSlivers("site0", 1); err == nil {
		t.Error("overfull site must reject")
	}
}

func TestReserveSliversErrors(t *testing.T) {
	a := testAuthority(t, 1, 1, 1)
	if _, err := a.reserveSlivers("nope", 1); err == nil {
		t.Error("unknown site must fail")
	}
	if _, err := a.reserveSlivers("site0", 0); err == nil {
		t.Error("zero count must fail")
	}
}

// TestReserveWalk: Reserve takes sites in ID order, whatever the AddSite
// order, skips sites whose free slots do not cover per, and stops after
// maxSites sites.
func TestReserveWalk(t *testing.T) {
	a := NewAuthority("x")
	for _, id := range []string{"c", "a", "b"} {
		if err := a.AddSite(&Site{ID: id, Nodes: []Node{{ID: "n", Capacity: 2}}}); err != nil {
			t.Fatal(err)
		}
	}
	for _, per := range []int{0, -1, 3} {
		if got := a.Reserve(per, 0); got != nil {
			t.Errorf("Reserve(per %d) = %v, want nothing", per, got)
		}
	}
	sv := func(site string) Sliver { return Sliver{SiteID: site, NodeID: "n"} }
	if got, want := a.Reserve(2, 1), []Sliver{sv("a"), sv("a")}; !reflect.DeepEqual(got, want) {
		t.Errorf("Reserve(2, 1) = %v, want %v", got, want)
	}
	// Site a is full: the walk passes it by.
	if got, want := a.Reserve(1, 0), []Sliver{sv("b"), sv("c")}; !reflect.DeepEqual(got, want) {
		t.Errorf("Reserve(1, 0) = %v, want %v", got, want)
	}
	if got, want := a.Reserve(1, 1), []Sliver{sv("b")}; !reflect.DeepEqual(got, want) {
		t.Errorf("Reserve(1, 1) = %v, want %v", got, want)
	}
}

func TestReleaseSliversFreesCapacity(t *testing.T) {
	a := testAuthority(t, 3, 1, 1)
	held := a.Reserve(1, 0)
	if a.Utilization() != 1 {
		t.Errorf("utilization %g, want 1", a.Utilization())
	}
	if got := a.Reserve(1, 0); len(got) != 0 {
		t.Errorf("full system still offers %v", got)
	}
	if _, err := a.reserveSlivers("site0", 1); err == nil {
		t.Error("full site must reject")
	}
	a.ReleaseSlivers(held)
	if a.Utilization() != 0 {
		t.Errorf("utilization %g after release, want 0", a.Utilization())
	}
	// A second release of the same slivers must not drive a node's load
	// negative and so mint capacity.
	a.ReleaseSlivers(held)
	if a.SiteFree("site0") != 1 {
		t.Errorf("site0 free %d after double release, want 1", a.SiteFree("site0"))
	}
	for _, site := range []string{"site0", "site1", "site2"} {
		if _, err := a.reserveSlivers(site, 1); err != nil {
			t.Errorf("freed capacity should host the slivers: %v", err)
		}
	}
}

// TestConcurrentSliceCreation places two-site slices from many goroutines
// the way the sfa plane embeds a slice locally: one Reserve walk bounded
// at the threshold, releasing the partial hold if it falls short.
// Concurrent placement must never oversubscribe a node.
func TestConcurrentSliceCreation(t *testing.T) {
	a := testAuthority(t, 4, 2, 2) // 4 sites * 2 nodes * 2 = 16 sliver slots
	const slices, perSlice = 12, 2
	var wg sync.WaitGroup
	placed := make([][]Sliver, slices)
	for i := 0; i < slices; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			hold := a.Reserve(1, perSlice)
			if len(hold) < perSlice {
				a.ReleaseSlivers(hold)
				return
			}
			placed[i] = hold
		}(i)
	}
	wg.Wait()
	created := 0
	for _, hold := range placed {
		if hold != nil {
			created++
		}
	}
	if created == 0 {
		t.Fatal("no slice placed under concurrency")
	}
	// Capacity accounting must match the committed placements exactly:
	// never oversubscribed, and no slot leaked by a released partial hold.
	if got, want := a.Utilization(), float64(created*perSlice)/16; got != want {
		t.Errorf("utilization %g with %d slices placed, want %g", got, created, want)
	}
	for _, hold := range placed {
		a.ReleaseSlivers(hold)
	}
	if a.Utilization() != 0 {
		t.Errorf("utilization %g after releasing every slice", a.Utilization())
	}
}

// BenchmarkAuthorityReserveRelease runs one coordinator-side placement on
// fedbench's authority shape (sites × 2 nodes × capacity 10): a Reserve
// walk of one sliver at each of 40 sites, then their release. At 50,000
// sites the walk stops after its 40th site.
func BenchmarkAuthorityReserveRelease(b *testing.B) {
	for _, sites := range []int{40, 50000} {
		b.Run(fmt.Sprintf("sites=%d", sites), func(b *testing.B) {
			a := NewAuthority("PLC")
			for s := 0; s < sites; s++ {
				site := &Site{ID: fmt.Sprintf("PLC-site%05d", s), Name: fmt.Sprintf("PLC site %d", s)}
				for n := 0; n < 2; n++ {
					site.Nodes = append(site.Nodes, Node{ID: fmt.Sprintf("node%d", n), Capacity: 10})
				}
				if err := a.AddSite(site); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hold := a.Reserve(1, 40)
				if len(hold) != 40 {
					b.Fatalf("placed %d slivers, want 40", len(hold))
				}
				a.ReleaseSlivers(hold)
			}
		})
	}
}
