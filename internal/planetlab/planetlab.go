// Package planetlab models the testbed substrate the paper federates: sites
// contribute nodes, slices place one or more slivers per node across a set
// of sites, and competing slivers on a node share its capacity under
// short-term fair allocation (Sec. 1.2). Regional authorities (PLC, PLE,
// PLJ, …) each manage a disjoint set of sites. An Authority is one such
// operator's node-load ledger; the sfa package owns the slices, their
// leases and the federation of authorities over the network.
package planetlab

import (
	"fmt"
	"sort"
	"sync"
)

// Node is one server contributed by a site.
type Node struct {
	ID       string
	HostName string
	// Capacity is the number of concurrent slivers the node can host at
	// full quality (the bottleneck-resource aggregate R of the paper).
	Capacity int
}

// Site is a contributing institution: a distinct location in the economic
// model.
type Site struct {
	ID    string
	Name  string
	Nodes []Node
}

// Capacity returns the site's total sliver capacity.
func (s *Site) Capacity() int {
	t := 0
	for _, n := range s.Nodes {
		t += n.Capacity
	}
	return t
}

// SliceSpec is a slice request: a minimum number of distinct sites and a
// sliver count per site.
type SliceSpec struct {
	Name           string
	Owner          string
	MinSites       int // diversity threshold l
	MaxSites       int // 0 = unbounded
	SliversPerSite int // resources per location r (default 1)
}

// Validate checks the spec.
func (s SliceSpec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("planetlab: slice needs a name")
	}
	if s.MinSites < 0 {
		return fmt.Errorf("planetlab: slice %s has negative MinSites", s.Name)
	}
	if s.MaxSites < 0 {
		return fmt.Errorf("planetlab: slice %s has negative MaxSites", s.Name)
	}
	if s.MaxSites > 0 && s.MaxSites < s.MinSites {
		return fmt.Errorf("planetlab: slice %s has MaxSites < MinSites", s.Name)
	}
	return nil
}

// Sliver is one virtual machine of a slice on one node.
type Sliver struct {
	SliceName string
	SiteID    string
	NodeID    string
}

// Authority is one regional testbed operator: its sites and the number of
// slivers placed on each node. It is safe for concurrent use (the sfa
// server handles connections in parallel).
type Authority struct {
	Name string

	mu    sync.Mutex
	sites []*Site
	// load[nodeKey] counts slivers currently placed on a node.
	load map[string]int
}

// NewAuthority creates an empty authority.
func NewAuthority(name string) *Authority {
	return &Authority{Name: name, load: map[string]int{}}
}

// AddSite registers a site. Site IDs must be unique within the authority.
func (a *Authority) AddSite(s *Site) error {
	if s.ID == "" {
		return fmt.Errorf("planetlab: site needs an ID")
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, existing := range a.sites {
		if existing.ID == s.ID {
			return fmt.Errorf("planetlab: duplicate site %s", s.ID)
		}
	}
	a.sites = append(a.sites, s)
	return nil
}

// Sites returns a snapshot of the authority's sites.
func (a *Authority) Sites() []*Site {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]*Site(nil), a.sites...)
}

// SiteCount returns the number of sites (the authority's L contribution).
func (a *Authority) SiteCount() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.sites)
}

func nodeKey(siteID, nodeID string) string { return siteID + "/" + nodeID }

// freeSlotsLocked returns the spare sliver slots of a node.
func (a *Authority) freeSlotsLocked(siteID string, n Node) int {
	return n.Capacity - a.load[nodeKey(siteID, n.ID)]
}

// SiteFree returns the unreserved sliver slots at a site (0 for unknown
// sites).
func (a *Authority) SiteFree(siteID string) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, s := range a.sites {
		if s.ID != siteID {
			continue
		}
		free := 0
		for _, n := range s.Nodes {
			free += a.freeSlotsLocked(s.ID, n)
		}
		return free
	}
	return 0
}

// AvailableSites returns the IDs of sites that can host at least want more
// slivers.
func (a *Authority) AvailableSites(want int) []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	var out []string
	for _, s := range a.sites {
		free := 0
		for _, n := range s.Nodes {
			free += a.freeSlotsLocked(s.ID, n)
		}
		if free >= want {
			out = append(out, s.ID)
		}
	}
	sort.Strings(out)
	return out
}

// ReserveSlivers places count slivers of slice sliceName at the given site,
// spreading them over the least-loaded nodes. It returns the slivers or an
// error without partial placement.
func (a *Authority) ReserveSlivers(sliceName, siteID string, count int) ([]Sliver, error) {
	if count <= 0 {
		return nil, fmt.Errorf("planetlab: sliver count must be positive")
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	var site *Site
	for _, s := range a.sites {
		if s.ID == siteID {
			site = s
			break
		}
	}
	if site == nil {
		return nil, fmt.Errorf("planetlab: %s has no site %s", a.Name, siteID)
	}
	// Least-loaded-first placement (short-term fair share).
	type slot struct {
		node Node
		free int
	}
	var slots []slot
	for _, n := range site.Nodes {
		if free := a.freeSlotsLocked(siteID, n); free > 0 {
			slots = append(slots, slot{n, free})
		}
	}
	sort.Slice(slots, func(i, j int) bool {
		if slots[i].free != slots[j].free {
			return slots[i].free > slots[j].free
		}
		return slots[i].node.ID < slots[j].node.ID
	})
	var placed []Sliver
	remaining := count
	for _, sl := range slots {
		take := sl.free
		if take > remaining {
			take = remaining
		}
		for k := 0; k < take; k++ {
			placed = append(placed, Sliver{SliceName: sliceName, SiteID: siteID, NodeID: sl.node.ID})
		}
		remaining -= take
		if remaining == 0 {
			break
		}
	}
	if remaining > 0 {
		return nil, fmt.Errorf("planetlab: site %s has insufficient capacity for %d slivers", siteID, count)
	}
	for _, sv := range placed {
		a.load[nodeKey(sv.SiteID, sv.NodeID)]++
	}
	return placed, nil
}

// ReleaseSlivers undoes a reservation.
func (a *Authority) ReleaseSlivers(slivers []Sliver) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, sv := range slivers {
		k := nodeKey(sv.SiteID, sv.NodeID)
		if a.load[k] > 0 {
			a.load[k]--
		}
	}
}

// RestoreSlivers places slivers at exactly the given nodes, without
// re-running placement policy or capacity checks: the placements were
// decided (and made durable) earlier, and replaying them must reproduce
// them bit-for-bit rather than re-decide them.
func (a *Authority) RestoreSlivers(svs []Sliver) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, sv := range svs {
		a.load[nodeKey(sv.SiteID, sv.NodeID)]++
	}
}

// Utilization returns slivers-placed / total-capacity over all sites.
func (a *Authority) Utilization() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	capTotal, used := 0, 0
	for _, s := range a.sites {
		for _, n := range s.Nodes {
			capTotal += n.Capacity
			used += a.load[nodeKey(s.ID, n.ID)]
		}
	}
	if capTotal == 0 {
		return 0
	}
	return float64(used) / float64(capTotal)
}
