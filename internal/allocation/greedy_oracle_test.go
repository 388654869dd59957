package allocation

import "sort"

// The scan-based greedy engine, kept as the oracle the indexed engine must
// match bit for bit: greedyWithOrder is one admission order of
// solveGreedy, and pickLocations/pickOne are its linear-scan location
// pickers (also used by the P2P oracle).

type location struct {
	class int
	rem   float64
}

func greedyWithOrder(pool Pool, reqs []Request, ascending bool) *Result {
	nc := len(pool.Classes)
	res := &Result{
		X:               make([]int, len(reqs)),
		ConsumedByClass: make([]float64, nc),
		SlotsByClass:    make([]int, nc),
	}
	L := pool.TotalLocations()
	if L == 0 || len(reqs) == 0 {
		return res
	}
	locs := make([]location, 0, L)
	for c, cl := range pool.Classes {
		for i := 0; i < cl.Count; i++ {
			locs = append(locs, location{class: c, rem: cl.Capacity})
		}
	}
	order := make([]int, len(reqs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		if ascending {
			return reqs[order[a]].Min < reqs[order[b]].Min
		}
		return reqs[order[a]].Min > reqs[order[b]].Min
	})

	used := make([][]bool, len(reqs)) // used[j][loc]
	usedCount := make([]int, L)       // how many requests use each location
	x := make([]int, len(reqs))
	admitted := make([]bool, len(reqs))

	// Phase A: minima.
	for _, j := range order {
		r := reqs[j]
		maxX := r.maxLocations(L)
		if r.Min > maxX {
			continue
		}
		take := pickLocations(locs, nil, usedCount, r.Resources, r.Min)
		if len(take) < r.Min {
			continue
		}
		admitted[j] = true
		used[j] = make([]bool, L)
		for _, li := range take {
			locs[li].rem -= r.Resources
			used[j][li] = true
			usedCount[li]++
		}
		x[j] = len(take)
	}

	// Phase B: marginal top-up, one location at a time.
	for {
		bestJ, bestLoc := -1, -1
		bestGain := 1e-12
		for j := range reqs {
			if !admitted[j] {
				continue
			}
			r := reqs[j]
			if x[j] >= r.maxLocations(L) {
				continue
			}
			gain := r.Utility(x[j]+1) - r.Utility(x[j])
			if gain <= bestGain {
				continue
			}
			li := pickOne(locs, used[j], usedCount, r.Resources)
			if li < 0 {
				continue
			}
			bestJ, bestLoc, bestGain = j, li, gain
		}
		if bestJ < 0 {
			break
		}
		locs[bestLoc].rem -= reqs[bestJ].Resources
		used[bestJ][bestLoc] = true
		usedCount[bestLoc]++
		x[bestJ]++
	}

	for j := range reqs {
		if !admitted[j] {
			continue
		}
		res.X[j] = x[j]
		res.Utility += reqs[j].Utility(x[j])
		for li, u := range used[j] {
			if u {
				res.SlotsByClass[locs[li].class]++
				res.ConsumedByClass[locs[li].class] += reqs[j].Resources
			}
		}
	}
	return res
}

// pickLocations returns up to want location indices with remaining capacity
// >= need, not already marked in used. Preference order: locations already
// used by the most other requests first (they cannot serve those requests
// again, so consuming them harms nobody), then the highest remaining
// capacity (water-filling keeps scarce low-capacity locations free for
// longer). usedCount may be nil when no assignments exist yet.
func pickLocations(locs []location, used []bool, usedCount []int, need float64, want int) []int {
	type cand struct {
		idx  int
		rem  float64
		uses int
	}
	cands := make([]cand, 0, len(locs))
	for i, l := range locs {
		if l.rem+1e-12 >= need && (used == nil || !used[i]) {
			uses := 0
			if usedCount != nil {
				uses = usedCount[i]
			}
			cands = append(cands, cand{i, l.rem, uses})
		}
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].uses != cands[b].uses {
			return cands[a].uses > cands[b].uses
		}
		if cands[a].rem != cands[b].rem {
			return cands[a].rem > cands[b].rem
		}
		return cands[a].idx < cands[b].idx
	})
	if len(cands) > want {
		cands = cands[:want]
	}
	out := make([]int, len(cands))
	for i, c := range cands {
		out[i] = c.idx
	}
	return out
}

// pickOne returns the best single location with rem >= need not yet used by
// this request (same preference order as pickLocations), or -1.
func pickOne(locs []location, used []bool, usedCount []int, need float64) int {
	best := -1
	bestUses := -1
	for i, l := range locs {
		if used != nil && used[i] {
			continue
		}
		if l.rem+1e-12 < need {
			continue
		}
		uses := 0
		if usedCount != nil {
			uses = usedCount[i]
		}
		if best < 0 || uses > bestUses || (uses == bestUses && l.rem > locs[best].rem) {
			best = i
			bestUses = uses
		}
	}
	return best
}
