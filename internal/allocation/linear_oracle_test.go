package allocation

import (
	"math"
	"sort"
)

// The d = 1 engine as it stood before Solve and the PrefixSolver shared
// one admission kernel (linear.go), kept as the oracles the kernel is
// checked against: solveFast scans the requests in ascending-Min order
// and re-checks Gale–Ryser over every class for every prefix (O(K²·C) a
// solve); solveAnalytic binary-searches m·l ≤ totalSlots(m) for
// identical minima. The two share distributeBalanced, so they agree bit
// for bit on the analytic domain, and each converts capacity to slots
// with int(math.Floor(capacity/r0)): keep capacity/r0 below 2^63 in
// instances handed to them.

// fastApplies reports whether the polymatroid fast path is usable: uniform
// resources, all shapes exactly 1, no binding Max.
func fastApplies(pool Pool, reqs []Request) bool {
	if len(reqs) == 0 {
		return true
	}
	L := pool.TotalLocations()
	r0 := reqs[0].Resources
	for _, r := range reqs {
		if r.Shape != 1 || r.Resources != r0 {
			return false
		}
		if r.Max > 0 && r.Max < L {
			return false
		}
	}
	return true
}

// totalSlots returns Σ_c Count_c · min(n_c, m): the maximum number of
// (experiment, location) pairs achievable with m experiments, where n_c is
// the per-location experiment capacity of class c.
func totalSlots(n []int, counts []int, m int) int {
	t := 0
	for c := range n {
		k := n[c]
		if k > m {
			k = m
		}
		t += counts[c] * k
	}
	return t
}

// minimaFeasible checks the Gale–Ryser condition for a multiset of minimum
// demands: sorted descending, every prefix sum must fit within the maximum
// slot supply for that many experiments.
func minimaFeasible(minsDesc []int, n, counts []int) bool {
	prefix := 0
	for k, l := range minsDesc {
		prefix += l
		if prefix > totalSlots(n, counts, k+1) {
			return false
		}
	}
	return true
}

// solveFast is the exact d = 1 engine. With linear utility, total utility
// equals total assigned slots; the transversal polymatroid of bipartite
// degree sequences makes the maximum total slots for m admitted experiments
// exactly totalSlots(m), achievable above any feasible vector of minima.
// Admission therefore admits requests in ascending-Min order while the
// minima stay feasible and the marginal slot supply remains positive.
func solveFast(pool Pool, reqs []Request) *Result {
	res := emptyResult(pool, reqs)
	if len(reqs) == 0 {
		return res
	}
	r0 := reqs[0].Resources
	n, counts := fastSetup(pool, r0)
	L := pool.TotalLocations()

	// Admission order: ascending Min (cheapest feasibility footprint first).
	order := make([]int, len(reqs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return reqs[order[a]].Min < reqs[order[b]].Min })

	admitted := make([]int, 0, len(reqs))
	minsDesc := make([]int, 0, len(reqs)) // maintained sorted descending
	for _, j := range order {
		if reqs[j].Min > L {
			continue // can never meet its diversity threshold
		}
		m := len(admitted)
		if totalSlots(n, counts, m+1) == totalSlots(n, counts, m) && reqs[j].Min == 0 {
			// No new capacity and no obligation: admitting adds nothing.
			continue
		}
		// Tentatively admit and check minima feasibility.
		pos := sort.Search(len(minsDesc), func(i int) bool { return minsDesc[i] < reqs[j].Min })
		minsDesc = append(minsDesc, 0)
		copy(minsDesc[pos+1:], minsDesc[pos:])
		minsDesc[pos] = reqs[j].Min
		if !minimaFeasible(minsDesc, n, counts) {
			// Roll back; later requests have equal or larger Min, but a
			// *smaller* slot footprint is impossible, so only requests with
			// the same Min could also fail — keep scanning (cheap).
			copy(minsDesc[pos:], minsDesc[pos+1:])
			minsDesc = minsDesc[:len(minsDesc)-1]
			continue
		}
		admitted = append(admitted, j)
	}

	distributeBalanced(res, reqs, admitted, n, counts, L, r0)
	return res
}

// fastSetup computes the fast engine's per-class tables: n[c] = ⌊R_c/r⌋,
// the per-location experiment capacity, and counts[c], the location count.
func fastSetup(pool Pool, r0 float64) (n, counts []int) {
	nc := len(pool.Classes)
	n = make([]int, nc)
	counts = make([]int, nc)
	for c, cl := range pool.Classes {
		n[c] = int(math.Floor(cl.Capacity / r0))
		counts[c] = cl.Count
	}
	return n, counts
}

// distributeBalanced fills res with the balanced maximal assignment for the
// given admitted set — the shared tail of solveFast and solveAnalytic, so
// the two engines produce bit-identical results on their common domain.
func distributeBalanced(res *Result, reqs []Request, admitted []int, n, counts []int, L int, r0 float64) {
	m := len(admitted)
	if m == 0 {
		return
	}
	total := totalSlots(n, counts, m)

	// Distribute total slots by water-filling: every experiment keeps at
	// least its minimum, and surplus raises the lowest allocations toward a
	// common level λ capped at L. Any distribution has equal utility at
	// d = 1; balanced keeps X informative and matches the paper's
	// short-term fair-share story.
	xs := make([]int, m)
	fill := func(lambda int) int {
		sum := 0
		for _, j := range admitted {
			x := reqs[j].Min
			if lambda > x {
				x = lambda
			}
			if x > L {
				x = L
			}
			sum += x
		}
		return sum
	}
	lo, hi := 0, L
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if fill(mid) <= total {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	remainder := total - fill(lo)
	for i, j := range admitted {
		x := reqs[j].Min
		if lo > x {
			x = lo
		}
		if x > L {
			x = L
		}
		// Spend the sub-λ remainder one unit at a time on experiments
		// sitting exactly at the water level.
		if remainder > 0 && x == lo && x < L && reqs[j].Min <= lo {
			x++
			remainder--
		}
		xs[i] = x
	}
	for i, j := range admitted {
		res.X[j] = xs[i]
		res.Utility += float64(xs[i])
	}

	// Per-class consumption of the maximal balanced assignment: class c
	// locations each host min(n_c, m) experiments; if not all slots were
	// handed out (demand-limited), scale proportionally.
	slotsAvail := 0
	for c := range n {
		k := n[c]
		if k > m {
			k = m
		}
		slotsAvail += counts[c] * k
	}
	assigned := 0
	for _, x := range xs {
		assigned += x
	}
	for c := range n {
		k := n[c]
		if k > m {
			k = m
		}
		classSlots := counts[c] * k
		if slotsAvail > 0 && assigned < slotsAvail {
			// Spread shortfall evenly: experiments visit all locations
			// uniformly until class capacity binds.
			classSlots = int(math.Round(float64(classSlots) * float64(assigned) / float64(slotsAvail)))
		}
		res.SlotsByClass[c] = classSlots
		res.ConsumedByClass[c] = float64(classSlots) * r0
	}
	rebalanceSlots(res, assigned)
}

// analyticEligible assumes fastApplies already holds (uniform Resources,
// Shape 1, unbounded Max) and checks the extra homogeneity condition.
func analyticEligible(pool Pool, reqs []Request) bool {
	if len(reqs) == 0 {
		return false
	}
	min0 := reqs[0].Min
	for _, r := range reqs[1:] {
		if r.Min != min0 {
			return false
		}
	}
	return true
}

// solveAnalytic solves a homogeneous linear-demand instance: admission in
// closed form, then the same balanced distribution as solveFast.
func solveAnalytic(pool Pool, reqs []Request) *Result {
	res := emptyResult(pool, reqs)
	k := len(reqs)
	if k == 0 {
		return res
	}
	r0 := reqs[0].Resources
	l := reqs[0].Min
	n, counts := fastSetup(pool, r0)
	L := pool.TotalLocations()

	m := 0
	switch {
	case l > L:
		// The diversity threshold can never be met: nothing is admitted.
	case l == 0:
		// solveFast admits zero-minimum requests while the marginal slot
		// supply totalSlots(m+1) − totalSlots(m) = Σ_{c: n_c > m} Count_c
		// stays positive, i.e. while m < max_c n_c over non-empty classes.
		maxN := 0
		for c := range n {
			if counts[c] > 0 && n[c] > maxN {
				maxN = n[c]
			}
		}
		m = k
		if m > maxN {
			m = maxN
		}
	default:
		// Identical minima make Gale–Ryser a single inequality; totalSlots
		// is concave with totalSlots(0) = 0, so totalSlots(m)/m is
		// non-increasing and the feasible set {m : m·l ≤ totalSlots(m)} is
		// a prefix of 0..k — binary search its upper end.
		lo, hi := 0, k
		for lo < hi {
			mid := (lo + hi + 1) / 2
			if mid*l <= totalSlots(n, counts, mid) {
				lo = mid
			} else {
				hi = mid - 1
			}
		}
		m = lo
	}

	if m == 0 {
		return res
	}
	// solveFast's stable ascending-Min order is the identity for identical
	// requests, so the admitted set is always the first m indices.
	admitted := make([]int, m)
	for i := range admitted {
		admitted[i] = i
	}
	distributeBalanced(res, reqs, admitted, n, counts, L, r0)
	return res
}
