// Package planetlab models the testbed substrate the paper federates: sites
// contribute nodes, slices place one or more slivers per node across a set
// of sites, and competing slivers on a node share its capacity under
// short-term fair allocation (Sec. 1.2). Regional authorities (PLC, PLE,
// PLJ, …) each manage a disjoint set of sites. An Authority is one such
// operator's node-load ledger; the sfa package owns the slices, their
// leases and the federation of authorities over the network.
package planetlab

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
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

// Sliver is one virtual machine of a slice on one node.
type Sliver struct {
	SiteID string
	NodeID string
}

// Authority is one regional testbed operator: its sites and the number of
// slivers placed on each node. It is safe for concurrent use (the sfa
// server handles connections in parallel).
type Authority struct {
	Name string

	mu sync.Mutex
	// sites holds the sites in AddSite order, each with its node loads.
	sites []*siteLoad
	// index maps a site ID to its entry in sites.
	index map[string]*siteLoad
	// byID lists the sites in ID order. AddSite leaves it short, and
	// Reserve re-sorts it then, so building a large authority costs one
	// sort.
	byID []*siteLoad
}

// siteLoad is one site and its ledger: load[j] counts the slivers placed
// on site.Nodes[j].
type siteLoad struct {
	site *Site
	load []int
}

// free returns the site's unreserved sliver slots.
func (sl *siteLoad) free() int {
	free := 0
	for j, n := range sl.site.Nodes {
		free += n.Capacity - sl.load[j]
	}
	return free
}

// node returns the position of the node with the given ID, or -1.
func (sl *siteLoad) node(id string) int {
	for j := range sl.site.Nodes {
		if sl.site.Nodes[j].ID == id {
			return j
		}
	}
	return -1
}

// NewAuthority creates an empty authority.
func NewAuthority(name string) *Authority {
	return &Authority{Name: name, index: map[string]*siteLoad{}}
}

// AddSite registers a site. Site IDs must be unique within the authority,
// and node IDs within the site. The authority keeps its own copy of the
// node list, so later changes to s.Nodes do not reach it.
func (a *Authority) AddSite(s *Site) error {
	if s.ID == "" {
		return fmt.Errorf("planetlab: site needs an ID")
	}
	seen := make(map[string]bool, len(s.Nodes))
	for _, n := range s.Nodes {
		if seen[n.ID] {
			return fmt.Errorf("planetlab: site %s has duplicate node %s", s.ID, n.ID)
		}
		seen[n.ID] = true
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, ok := a.index[s.ID]; ok {
		return fmt.Errorf("planetlab: duplicate site %s", s.ID)
	}
	site := *s
	site.Nodes = append([]Node(nil), s.Nodes...)
	sl := &siteLoad{site: &site, load: make([]int, len(site.Nodes))}
	a.index[s.ID] = sl
	a.sites = append(a.sites, sl)
	return nil
}

// Sites returns a snapshot of the authority's sites, in AddSite order. The
// sites are the authority's own and must not be modified.
func (a *Authority) Sites() []*Site {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]*Site, len(a.sites))
	for i, sl := range a.sites {
		out[i] = sl.site
	}
	return out
}

// SiteCount returns the number of sites (the authority's L contribution).
func (a *Authority) SiteCount() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.sites)
}

// Capacity returns the authority's total sliver slots.
func (a *Authority) Capacity() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	t := 0
	for _, sl := range a.sites {
		t += sl.site.Capacity()
	}
	return t
}

// SiteFree returns the unreserved sliver slots at a site (0 for unknown
// sites).
func (a *Authority) SiteFree(siteID string) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	if sl := a.index[siteID]; sl != nil {
		return sl.free()
	}
	return 0
}

// Reserve places per slivers at each of up to maxSites sites
// (every site when maxSites <= 0). It walks the sites in ID order and
// takes each whose free slots cover per, so the slivers come per to a site
// and len/per sites were used. It places nothing when per is not positive.
func (a *Authority) Reserve(per, maxSites int) []Sliver {
	if per <= 0 {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.byID) != len(a.sites) {
		a.byID = append([]*siteLoad(nil), a.sites...)
		sort.Slice(a.byID, func(i, j int) bool { return a.byID[i].site.ID < a.byID[j].site.ID })
	}
	var placed []Sliver
	sites := 0
	for _, sl := range a.byID {
		if maxSites > 0 && sites == maxSites {
			break
		}
		if sl.free() < per {
			continue
		}
		var ok bool
		if placed, ok = sl.reserve(placed, per); ok {
			sites++
		}
	}
	return placed
}

// reserve appends count slivers to placed, spreading them over
// the site's least-loaded nodes, and reports whether its nodes had room
// for all of them; if not, it places nothing.
func (sl *siteLoad) reserve(placed []Sliver, count int) ([]Sliver, bool) {
	// Least-loaded-first placement (short-term fair share): nodes with
	// room, most free slots first, ties by node ID.
	nodes := sl.site.Nodes
	freeAt := func(j int) int { return nodes[j].Capacity - sl.load[j] }
	var buf [8]int
	slots := buf[:0]
	room := 0
	for j := range nodes {
		if free := freeAt(j); free > 0 {
			slots = append(slots, j)
			room += free
		}
	}
	if room < count {
		return placed, false
	}
	slices.SortFunc(slots, func(i, j int) int {
		if c := cmp.Compare(freeAt(j), freeAt(i)); c != 0 {
			return c
		}
		return strings.Compare(nodes[i].ID, nodes[j].ID)
	})
	for _, j := range slots {
		take := min(freeAt(j), count)
		for k := 0; k < take; k++ {
			placed = append(placed, Sliver{SiteID: sl.site.ID, NodeID: nodes[j].ID})
		}
		sl.load[j] += take
		if count -= take; count == 0 {
			break
		}
	}
	return placed, true
}

// ReleaseSlivers undoes a reservation. A sliver at an unknown node, or at
// a node with no load left, is skipped.
func (a *Authority) ReleaseSlivers(slivers []Sliver) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, sv := range slivers {
		if sl := a.index[sv.SiteID]; sl != nil {
			if j := sl.node(sv.NodeID); j >= 0 && sl.load[j] > 0 {
				sl.load[j]--
			}
		}
	}
}

// RestoreSlivers places slivers at exactly the given nodes, without
// re-running placement policy or capacity checks: the placements were
// decided (and made durable) earlier, and replaying them must reproduce
// them bit-for-bit rather than re-decide them. A sliver at an unknown node
// is skipped.
func (a *Authority) RestoreSlivers(svs []Sliver) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, sv := range svs {
		if sl := a.index[sv.SiteID]; sl != nil {
			if j := sl.node(sv.NodeID); j >= 0 {
				sl.load[j]++
			}
		}
	}
}

// Utilization returns slivers-placed / total-capacity over all sites.
func (a *Authority) Utilization() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	capTotal, used := 0, 0
	for _, sl := range a.sites {
		for j, n := range sl.site.Nodes {
			capTotal += n.Capacity
			used += sl.load[j]
		}
	}
	if capTotal == 0 {
		return 0
	}
	return float64(used) / float64(capTotal)
}
