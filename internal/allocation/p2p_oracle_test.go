package allocation

import "fmt"

// reqRef identifies one request as (facility index, request index).
type reqRef struct {
	fi, j int
}

// solveP2P is the scan-based P2P engine, kept as the oracle SolveP2P must
// match exactly. It maximizes total user utility subject to every facility
// obtaining at least its standalone utility (the individual-rationality
// constraint of problem (3)).
//
// The algorithm starts from the partition allocation — each facility serves
// its own users on its own locations, which meets every constraint with
// equality — and then improves monotonically: rejected requests are admitted
// on federation spare capacity and admitted requests are topped up by
// marginal utility. Because no step ever lowers a facility's utility, the
// constraints hold at every point, and the result quantifies the federation
// surplus of pooling.
func solveP2P(facilities []FacilityContribution) (*P2PResult, error) {
	nf := len(facilities)
	res := &P2PResult{
		Standalone: make([]float64, nf),
		Federated:  make([]float64, nf),
		X:          make([][]int, nf),
		Shares:     make([]float64, nf),
	}
	// Build the global location array, remembering class offsets.
	var locs []location
	locFacility := []int{}
	for fi, f := range facilities {
		for _, cl := range f.Classes {
			if cl.Count < 0 || cl.Capacity < 0 {
				return nil, fmt.Errorf("allocation: facility %s has invalid class", f.Name)
			}
			for k := 0; k < cl.Count; k++ {
				locs = append(locs, location{class: fi, rem: cl.Capacity})
				locFacility = append(locFacility, fi)
			}
		}
	}
	L := len(locs)

	var refs []reqRef
	used := map[reqRef][]bool{}
	usedCount := make([]int, L)
	x := map[reqRef]int{}
	admitted := map[reqRef]bool{}

	for fi, f := range facilities {
		res.X[fi] = make([]int, len(f.Requests))
		for j, r := range f.Requests {
			if r.Resources <= 0 || r.Shape <= 0 || r.Min < 0 {
				return nil, fmt.Errorf("allocation: facility %s request %d invalid", f.Name, j)
			}
			refs = append(refs, reqRef{fi, j})
		}
	}

	// Phase 1 — partition allocation: each facility on its own locations.
	ownLocs := func(fi int) []bool {
		mask := make([]bool, L)
		for li := range locs {
			mask[li] = locFacility[li] != fi // mark *foreign* as used
		}
		return mask
	}
	for fi, f := range facilities {
		for j, r := range f.Requests {
			ref := reqRef{fi, j}
			maxX := r.maxLocations(L)
			if r.Min > maxX {
				continue
			}
			blocked := ownLocs(fi)
			take := pickLocations(locs, blocked, usedCount, r.Resources, max(r.Min, 1))
			if len(take) < r.Min || len(take) == 0 {
				continue
			}
			admitted[ref] = true
			u := make([]bool, L)
			for _, li := range take {
				locs[li].rem -= r.Resources
				u[li] = true
				usedCount[li]++
			}
			used[ref] = u
			x[ref] = len(take)
		}
	}
	// Local top-up to standalone optimum (still restricted to own
	// locations).
	topUp(facilities, locs, usedCount, refs, used, x, admitted, func(ref reqRef, li int) bool {
		return locFacility[li] == ref.fi
	}, L)
	for fi, f := range facilities {
		for j, r := range f.Requests {
			res.Standalone[fi] += r.Utility(x[reqRef{fi, j}])
		}
	}

	// Phase 2 — federation: admit locally-rejected requests on global spare
	// capacity, then global marginal top-up.
	for _, ref := range refs {
		if admitted[ref] {
			continue
		}
		r := facilities[ref.fi].Requests[ref.j]
		maxX := r.maxLocations(L)
		if r.Min > maxX {
			continue
		}
		take := pickLocations(locs, nil, usedCount, r.Resources, max(r.Min, 1))
		if len(take) < r.Min || len(take) == 0 {
			continue
		}
		admitted[ref] = true
		u := make([]bool, L)
		for _, li := range take {
			locs[li].rem -= r.Resources
			u[li] = true
			usedCount[li]++
		}
		used[ref] = u
		x[ref] = len(take)
	}
	topUp(facilities, locs, usedCount, refs, used, x, admitted, func(reqRef, int) bool { return true }, L)

	total := 0.0
	for fi, f := range facilities {
		for j, r := range f.Requests {
			ref := reqRef{fi, j}
			res.X[fi][j] = x[ref]
			res.Federated[fi] += r.Utility(x[ref])
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

// topUp hands out one location at a time to the admitted request with the
// highest marginal utility, restricted by allow(ref, locIdx).
func topUp(facilities []FacilityContribution, locs []location, usedCount []int,
	refs []reqRef, used map[reqRef][]bool,
	x map[reqRef]int, admitted map[reqRef]bool,
	allow func(reqRef, int) bool, L int) {

	for {
		var bestRef reqRef
		bestLoc := -1
		bestGain := 1e-12
		for _, ref := range refs {
			if !admitted[ref] {
				continue
			}
			r := facilities[ref.fi].Requests[ref.j]
			if x[ref] >= r.maxLocations(L) {
				continue
			}
			gain := r.Utility(x[ref]+1) - r.Utility(x[ref])
			if gain <= bestGain {
				continue
			}
			li := pickOneAllowed(locs, used[ref], usedCount, r.Resources, ref, allow)
			if li < 0 {
				continue
			}
			bestRef, bestLoc, bestGain = ref, li, gain
		}
		if bestLoc < 0 {
			return
		}
		r := facilities[bestRef.fi].Requests[bestRef.j]
		locs[bestLoc].rem -= r.Resources
		used[bestRef][bestLoc] = true
		usedCount[bestLoc]++
		x[bestRef]++
	}
}

func pickOneAllowed(locs []location, used []bool, usedCount []int, need float64,
	ref reqRef, allow func(reqRef, int) bool) int {
	best := -1
	bestUses := -1
	for i, l := range locs {
		if used != nil && used[i] {
			continue
		}
		if !allow(ref, i) {
			continue
		}
		if l.rem+1e-12 < need {
			continue
		}
		if best < 0 || usedCount[i] > bestUses || (usedCount[i] == bestUses && l.rem > locs[best].rem) {
			best = i
			bestUses = usedCount[i]
		}
	}
	return best
}
