package allocation

// Analytic fast path for homogeneous linear demand.
//
// Every numerical figure of the paper that sweeps a single experiment type
// (Figs 4, 6, 8, 9) produces a request list of K identical entries with
// utility shape d = 1 and no binding Max. In that regime the solveFast
// admission loop — O(K²) insertions plus Gale–Ryser prefix checks — has a
// closed form: with identical minima l, the Gale–Ryser condition for m
// admitted experiments degenerates to m·l ≤ totalSlots(m), and since
// totalSlots is concave through the origin the feasible m form a prefix,
// found by binary search. The value follows as V = totalSlots(m*)
// ("serve min(capacity, demand) iff ΣL_i ≥ l").
//
// solveAnalytic shares distributeBalanced with solveFast, so the two
// engines agree bit-for-bit (X, Utility, ConsumedByClass, SlotsByClass) on
// the analytic domain; solveFast remains the test oracle. Solve is the only
// entry point: it dispatches here when fastApplies and analyticEligible both
// hold, i.e. for a non-empty batch of identical requests with linear utility
// (Shape == 1), uniform Resources, identical Min, and no Max below the pool
// size.

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
