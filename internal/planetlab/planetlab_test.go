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

func TestCreateSliceSpansSites(t *testing.T) {
	a := testAuthority(t, 5, 2, 3)
	slice, err := a.CreateSlice(SliceSpec{Name: "exp1", Owner: "alice", MinSites: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(slice.Sites()); got != 5 {
		t.Errorf("slice spans %d sites, want all 5 (unbounded)", got)
	}
	if len(slice.Slivers) != 5 {
		t.Errorf("%d slivers, want 5 (one per site)", len(slice.Slivers))
	}
	got, ok := a.GetSlice("exp1")
	if !ok || got.Spec.Owner != "alice" {
		t.Error("GetSlice lookup failed")
	}
}

func TestCreateSliceMaxSites(t *testing.T) {
	a := testAuthority(t, 5, 1, 2)
	slice, err := a.CreateSlice(SliceSpec{Name: "cdn", MinSites: 2, MaxSites: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(slice.Sites()); got != 3 {
		t.Errorf("slice spans %d sites, want MaxSites=3", got)
	}
}

func TestCreateSliceDiversityFailure(t *testing.T) {
	a := testAuthority(t, 2, 1, 1)
	if _, err := a.CreateSlice(SliceSpec{Name: "big", MinSites: 5}); err == nil {
		t.Error("diversity threshold above site count must fail")
	}
	if a.Utilization() != 0 {
		t.Errorf("failed slice must leave no slivers: utilization %g", a.Utilization())
	}
}

func TestCreateSliceDuplicate(t *testing.T) {
	a := testAuthority(t, 2, 1, 2)
	if _, err := a.CreateSlice(SliceSpec{Name: "dup"}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.CreateSlice(SliceSpec{Name: "dup"}); err == nil {
		t.Error("duplicate slice name must fail")
	}
}

func TestDeleteSliceFreesCapacity(t *testing.T) {
	a := testAuthority(t, 3, 1, 1)
	if _, err := a.CreateSlice(SliceSpec{Name: "tmp", MinSites: 3}); err != nil {
		t.Fatal(err)
	}
	if a.Utilization() != 1 {
		t.Errorf("utilization %g, want 1", a.Utilization())
	}
	// Full system rejects a second slice needing all sites.
	if _, err := a.CreateSlice(SliceSpec{Name: "tmp2", MinSites: 3}); err == nil {
		t.Error("full system should reject")
	}
	if err := a.DeleteSlice("tmp"); err != nil {
		t.Fatal(err)
	}
	if a.Utilization() != 0 {
		t.Errorf("utilization %g after delete, want 0", a.Utilization())
	}
	if _, err := a.CreateSlice(SliceSpec{Name: "tmp2", MinSites: 3}); err != nil {
		t.Errorf("freed capacity should host the slice: %v", err)
	}
	if err := a.DeleteSlice("missing"); err == nil {
		t.Error("deleting a missing slice must fail")
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

func TestFairShare(t *testing.T) {
	a := testAuthority(t, 1, 1, 2)
	if got := a.FairShare("site0", "node0"); got != 1 {
		t.Errorf("idle fair share %g, want 1", got)
	}
	for i := 0; i < 2; i++ {
		if _, err := a.ReserveSlivers(fmt.Sprintf("s%d", i), "site0", 1); err != nil {
			t.Fatal(err)
		}
	}
	if got := a.FairShare("site0", "node0"); got != 1 {
		t.Errorf("at-capacity fair share %g, want 1", got)
	}
	if got := a.FairShare("nope", "node0"); got != 0 {
		t.Errorf("unknown node fair share %g, want 0", got)
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

func TestConcurrentSliceCreation(t *testing.T) {
	a := testAuthority(t, 4, 2, 2) // 16 sliver slots, 4 per... 4 sites * 2 nodes * 2 = 16
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = a.CreateSlice(SliceSpec{
				Name:     fmt.Sprintf("slice%d", i),
				MinSites: 2,
				MaxSites: 2,
			})
		}(i)
	}
	wg.Wait()
	created := 0
	for _, err := range errs {
		if err == nil {
			created++
		}
	}
	// 16 slots / 2 slivers each = at most 8; capacity accounting must never
	// oversubscribe.
	used := a.Utilization()
	if used > 1 {
		t.Errorf("utilization %g > 1: oversubscription", used)
	}
	if created == 0 {
		t.Error("no slice created under concurrency")
	}
}
