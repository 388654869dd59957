package planetlab

import (
	"fmt"
	"sort"
)

// oracleLedger is the map-keyed node-load ledger the indexed Authority
// replaced, kept as the reference for TestLedgerMatchesOracle: loads keyed
// by "site/node" strings, sites searched linearly, available IDs sorted on
// every call. Its keys collide for IDs that contain '/', and it accepts
// duplicate node IDs, so the differential test avoids both.
type oracleLedger struct {
	sites []*Site
	load  map[string]int
}

func newOracleLedger() *oracleLedger { return &oracleLedger{load: map[string]int{}} }

func (a *oracleLedger) AddSite(s *Site) error {
	if s.ID == "" {
		return fmt.Errorf("planetlab: site needs an ID")
	}
	for _, existing := range a.sites {
		if existing.ID == s.ID {
			return fmt.Errorf("planetlab: duplicate site %s", s.ID)
		}
	}
	a.sites = append(a.sites, s)
	return nil
}

func oracleKey(siteID, nodeID string) string { return siteID + "/" + nodeID }

func (a *oracleLedger) freeSlots(siteID string, n Node) int {
	return n.Capacity - a.load[oracleKey(siteID, n.ID)]
}

func (a *oracleLedger) SiteFree(siteID string) int {
	for _, s := range a.sites {
		if s.ID != siteID {
			continue
		}
		free := 0
		for _, n := range s.Nodes {
			free += a.freeSlots(s.ID, n)
		}
		return free
	}
	return 0
}

func (a *oracleLedger) AvailableSites(want int) []string {
	var out []string
	for _, s := range a.sites {
		free := 0
		for _, n := range s.Nodes {
			free += a.freeSlots(s.ID, n)
		}
		if free >= want {
			out = append(out, s.ID)
		}
	}
	sort.Strings(out)
	return out
}

func (a *oracleLedger) ReserveSlivers(siteID string, count int) ([]Sliver, error) {
	if count <= 0 {
		return nil, fmt.Errorf("planetlab: sliver count must be positive")
	}
	var site *Site
	for _, s := range a.sites {
		if s.ID == siteID {
			site = s
			break
		}
	}
	if site == nil {
		return nil, fmt.Errorf("planetlab: no site %s", siteID)
	}
	type slot struct {
		node Node
		free int
	}
	var slots []slot
	for _, n := range site.Nodes {
		if free := a.freeSlots(siteID, n); free > 0 {
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
			placed = append(placed, Sliver{SiteID: siteID, NodeID: sl.node.ID})
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
		a.load[oracleKey(sv.SiteID, sv.NodeID)]++
	}
	return placed, nil
}

// Reserve is the placement walk the sfa handlers ran before
// Authority.Reserve: the available sites in ID order, the first maxSites
// of them (all when maxSites <= 0), and ReserveSlivers at each.
func (a *oracleLedger) Reserve(per, maxSites int) []Sliver {
	ids := a.AvailableSites(per)
	if maxSites > 0 && len(ids) > maxSites {
		ids = ids[:maxSites]
	}
	var placed []Sliver
	for _, id := range ids {
		if svs, err := a.ReserveSlivers(id, per); err == nil {
			placed = append(placed, svs...)
		}
	}
	return placed
}

func (a *oracleLedger) ReleaseSlivers(slivers []Sliver) {
	for _, sv := range slivers {
		k := oracleKey(sv.SiteID, sv.NodeID)
		if a.load[k] > 0 {
			a.load[k]--
		}
	}
}

func (a *oracleLedger) RestoreSlivers(svs []Sliver) {
	for _, sv := range svs {
		a.load[oracleKey(sv.SiteID, sv.NodeID)]++
	}
}

func (a *oracleLedger) Utilization() float64 {
	capTotal, used := 0, 0
	for _, s := range a.sites {
		for _, n := range s.Nodes {
			capTotal += n.Capacity
			used += a.load[oracleKey(s.ID, n.ID)]
		}
	}
	if capTotal == 0 {
		return 0
	}
	return float64(used) / float64(capTotal)
}
