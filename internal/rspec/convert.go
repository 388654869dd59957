package rspec

import "fedshare/internal/sfa"

// FromResourceList converts an SFA wire-format resource list into an RSpec
// advertisement. Node identities are not carried by the wire format, so
// each site is rendered with synthetic per-node entries of equal capacity.
func FromResourceList(rl sfa.ResourceList) *Advertisement {
	ad := New(rl.Authority)
	for _, s := range rl.Sites {
		site := Site{ID: s.SiteID, Name: s.Name}
		nodes := s.Nodes
		if nodes <= 0 {
			nodes = 1
		}
		per := s.Capacity / nodes
		extra := s.Capacity - per*nodes
		freeLeft := s.Free
		for i := 0; i < nodes; i++ {
			c := per
			if i == 0 {
				c += extra
			}
			nf := c
			if nf > freeLeft {
				nf = freeLeft
			}
			freeLeft -= nf
			site.Nodes = append(site.Nodes, Node{
				ID:       nodeID(i),
				Capacity: c,
				Free:     nf,
			})
		}
		ad.Sites = append(ad.Sites, site)
	}
	return ad
}

func nodeID(i int) string {
	return "node" + string(rune('0'+i/10)) + string(rune('0'+i%10))
}
