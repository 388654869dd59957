package planetlab

import (
	"fmt"
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
}

func TestSliceSpecValidation(t *testing.T) {
	bad := []SliceSpec{
		{},
		{Name: "s", MinSites: -1},
		{Name: "s", MaxSites: -1},
		{Name: "s", MinSites: 5, MaxSites: 2},
	}
	for i, spec := range bad {
		if err := spec.Validate(); err == nil {
			t.Errorf("case %d should fail: %+v", i, spec)
		}
	}
	if err := (SliceSpec{Name: "ok", MinSites: 2, MaxSites: 4}).Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
}

func TestReserveSliversLeastLoaded(t *testing.T) {
	a := testAuthority(t, 1, 3, 2)
	// Six single-sliver reservations must spread 2-2-2 over the 3 nodes.
	perNode := map[string]int{}
	for i := 0; i < 6; i++ {
		svs, err := a.ReserveSlivers(fmt.Sprintf("s%d", i), "site0", 1)
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
	if _, err := a.ReserveSlivers("s7", "site0", 1); err == nil {
		t.Error("overfull site must reject")
	}
}

func TestReserveSliversErrors(t *testing.T) {
	a := testAuthority(t, 1, 1, 1)
	if _, err := a.ReserveSlivers("s", "nope", 1); err == nil {
		t.Error("unknown site must fail")
	}
	if _, err := a.ReserveSlivers("s", "site0", 0); err == nil {
		t.Error("zero count must fail")
	}
}

func TestAvailableSites(t *testing.T) {
	a := testAuthority(t, 3, 1, 2)
	if got := a.AvailableSites(2); len(got) != 3 {
		t.Errorf("AvailableSites(2) = %v", got)
	}
	if got := a.AvailableSites(3); len(got) != 0 {
		t.Errorf("AvailableSites(3) = %v, want none", got)
	}
	// Consume site0 fully.
	if _, err := a.ReserveSlivers("s", "site0", 2); err != nil {
		t.Fatal(err)
	}
	got := a.AvailableSites(1)
	if len(got) != 2 {
		t.Errorf("AvailableSites(1) after fill = %v", got)
	}
}

func TestReleaseSliversFreesCapacity(t *testing.T) {
	a := testAuthority(t, 3, 1, 1)
	var held []Sliver
	for _, site := range a.AvailableSites(1) {
		svs, err := a.ReserveSlivers("tmp", site, 1)
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, svs...)
	}
	if a.Utilization() != 1 {
		t.Errorf("utilization %g, want 1", a.Utilization())
	}
	if got := a.AvailableSites(1); len(got) != 0 {
		t.Errorf("full system still offers %v", got)
	}
	if _, err := a.ReserveSlivers("tmp2", "site0", 1); err == nil {
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
		if _, err := a.ReserveSlivers("tmp2", site, 1); err != nil {
			t.Errorf("freed capacity should host the slivers: %v", err)
		}
	}
}

// TestConcurrentSliceCreation places two-site slices from many goroutines
// the way the sfa plane embeds a slice locally: reserve at available sites
// until the threshold is met, release the partial hold otherwise.
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
			name := fmt.Sprintf("slice%d", i)
			var hold []Sliver
			for _, site := range a.AvailableSites(1) {
				if len(hold) == perSlice {
					break
				}
				if svs, err := a.ReserveSlivers(name, site, 1); err == nil {
					hold = append(hold, svs...)
				}
			}
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
