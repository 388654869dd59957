package core

import (
	"fmt"

	"fedshare/internal/coalition"
	"fedshare/internal/economics"
	"fedshare/internal/stats"
)

// AuthorityGroup is one top-level authority and the member testbeds that
// federate through it (Sec. 1.2: "other testbeds — e.g., G-Lab, EmanicsLab,
// and VINI — are joining the federation through the regional authorities").
type AuthorityGroup struct {
	Name    string
	Members []Facility
}

// HierarchicalShares is the result of the two-level value division.
type HierarchicalShares struct {
	// Authority[i] is group i's normalized share (sums to 1 when the
	// federation has value).
	Authority []float64
	// Member[i][j] is the normalized share of group i's j-th member;
	// Σ_j Member[i][j] == Authority[i] (Owen-value quotient consistency).
	Member [][]float64
	// GrandValue is V(N) over all members.
	GrandValue float64
}

// HierarchicalShapley computes the Owen value over the hierarchical
// federation: member testbeds are the players, authorities are the
// coalition-structure blocks. Authority-level totals coincide with the
// Shapley value of the quotient (authority-level) game, so the division is
// consistent across the hierarchy — the paper's "interdependencies between
// local and global federation policies" made concrete.
//
// Exact enumeration over the members' dense coalition table is used when
// feasible; otherwise mcSamples Monte-Carlo orderings (default 20000) with
// the given seed, which evaluate only the coalitions they visit and so
// serve up to 64 members.
func HierarchicalShapley(groups []AuthorityGroup, demand *economics.Workload, mcSamples int, seed uint64) (*HierarchicalShares, error) {
	if len(groups) == 0 {
		return nil, fmt.Errorf("core: need at least one authority group")
	}
	var members []Facility
	var blocks [][]int
	for _, g := range groups {
		if len(g.Members) == 0 {
			return nil, fmt.Errorf("core: authority %s has no members", g.Name)
		}
		var block []int
		for _, m := range g.Members {
			block = append(block, len(members))
			members = append(members, m)
		}
		blocks = append(blocks, block)
	}
	model, err := NewModel(members, demand)
	if err != nil {
		return nil, err
	}
	st := coalition.Structure{Blocks: blocks}

	// Owen reads the model's dense table, which it builds only once the
	// structure passes its ordering bound.
	phi, err := coalition.Owen(model, st)
	if err != nil {
		// Too many structured orderings: fall back to sampling, which
		// evaluates the model (through the allocation memo) only on the
		// coalitions its orderings visit.
		if mcSamples <= 0 {
			mcSamples = 20000
		}
		phi, err = coalition.MonteCarloOwen(model, st, mcSamples, stats.NewRand(seed))
		if err != nil {
			return nil, err
		}
	}
	norm := coalition.Normalize(model, phi)

	out := &HierarchicalShares{
		Authority:  make([]float64, len(groups)),
		Member:     make([][]float64, len(groups)),
		GrandValue: model.GrandValue(),
	}
	idx := 0
	for gi, g := range groups {
		out.Member[gi] = make([]float64, len(g.Members))
		for j := range g.Members {
			out.Member[gi][j] = norm[idx]
			out.Authority[gi] += norm[idx]
			idx++
		}
	}
	return out, nil
}
