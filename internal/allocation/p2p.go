package allocation

import "fmt"

// FacilityContribution couples what one facility brings to the P2P
// federation (its location classes) with what its affiliated users demand.
type FacilityContribution struct {
	Name     string
	Classes  []Class
	Requests []Request
}

// P2PResult is the outcome of the incentive-constrained allocation
// (problem (3) of the paper).
type P2PResult struct {
	// Standalone[i] is facility i's user utility when serving its own
	// demand with only its own resources.
	Standalone []float64
	// Federated[i] is facility i's user utility under the federated
	// allocation. Federated[i] >= Standalone[i] for every i by
	// construction.
	Federated []float64
	// X[i][j] is the locations assigned to facility i's j-th request.
	X [][]int
	// Shares are the value shares s_i = u_i(x_i*) / Σ_j u_j(x_j*).
	Shares []float64
}

// SolveP2P solves the P2P-scenario allocation: maximize total user utility
// subject to every facility obtaining at least its standalone utility
// (the individual-rationality constraint of problem (3)).
//
// The algorithm starts from the partition allocation — each facility serves
// its own users on its own locations, which meets every constraint with
// equality — and then improves monotonically: rejected requests are admitted
// on federation spare capacity and admitted requests are topped up by
// marginal utility. Because no step ever lowers a facility's utility, the
// constraints hold at every point, and the result quantifies the federation
// surplus of pooling. Both phases run on the greedy engine's location
// index; in the partition phase every foreign location starts marked as
// held by the request, so only its own facility's locations can serve it.
func SolveP2P(facilities []FacilityContribution) (*P2PResult, error) {
	nf := len(facilities)
	res := &P2PResult{
		Standalone: make([]float64, nf),
		Federated:  make([]float64, nf),
		X:          make([][]int, nf),
		Shares:     make([]float64, nf),
	}
	// One pool of every facility's classes; facility fi owns the location
	// range [bound[fi], bound[fi+1]).
	var classes []Class
	bound := make([]int, nf+1)
	for fi, f := range facilities {
		bound[fi+1] = bound[fi]
		for _, cl := range f.Classes {
			if err := checkClass(len(classes), cl); err != nil {
				return nil, fmt.Errorf("facility %s: %w", f.Name, err)
			}
			classes = append(classes, cl)
			bound[fi+1] += cl.Count
		}
	}
	L := bound[nf]

	// Every request in facility order, with its facility.
	var reqs []Request
	var owner []int
	for fi, f := range facilities {
		res.X[fi] = make([]int, len(f.Requests))
		if err := checkRequests(f.Requests); err != nil {
			return nil, fmt.Errorf("facility %s: %w", f.Name, err)
		}
		for _, r := range f.Requests {
			reqs = append(reqs, r)
			owner = append(owner, fi)
		}
	}

	s := greedyScratchPool.Get().(*greedyScratch)
	defer greedyScratchPool.Put(s)
	s.reset(classes, L, reqs)
	own := make([][]uint64, nf) // own[fi] marks facility fi's locations
	for fi := range own {
		own[fi] = make([]uint64, s.idx.words)
		for li := bound[fi]; li < bound[fi+1]; li++ {
			own[fi][li>>6] |= 1 << (li & 63)
		}
	}

	// Phase 1 — partition allocation: each facility on its own locations.
	for j, r := range reqs {
		used := s.usedOf(j)
		for w, m := range own[owner[j]] {
			used[w] = ^m
		}
		s.admit(j, r, max(r.Min, 1), L)
	}
	// Local top-up to standalone optimum (still restricted to own
	// locations).
	s.topUp(reqs, L)
	for j := range reqs {
		res.Standalone[owner[j]] += s.utility(j, &reqs[j], s.x[j])
		used := s.usedOf(j)
		for w, m := range own[owner[j]] {
			used[w] &= m
		}
	}

	// Phase 2 — federation: admit locally-rejected requests on global spare
	// capacity, then global marginal top-up.
	for j, r := range reqs {
		if !s.admitted[j] {
			s.admit(j, r, max(r.Min, 1), L)
		}
	}
	s.topUp(reqs, L)

	j := 0
	total := 0.0
	for fi, f := range facilities {
		for k := range f.Requests {
			res.X[fi][k] = s.x[j]
			res.Federated[fi] += s.utility(j, &reqs[j], s.x[j])
			j++
		}
		total += res.Federated[fi]
	}
	if total > 0 {
		for fi := range facilities {
			res.Shares[fi] = res.Federated[fi] / total
		}
	}
	return res, nil
}
