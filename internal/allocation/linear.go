package allocation

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
)

// The d = 1 engine.
//
// With linear utility (every Shape 1), uniform Resources r0 and no Max
// below the pool size — the paper's figure workloads — total utility is
// the number of (experiment, location) pairs assigned. A location of
// capacity C hosts up to n = ⌊C/r0⌋ experiments, so m admitted experiments
// can take at most totalSlots(m) = Σ over locations of min(n, m) pairs,
// and the transversal polymatroid of bipartite degree sequences
// (Gale–Ryser) makes that maximum achievable above any feasible vector of
// minima. Admission therefore takes requests in ascending-Min order while
// their minima stay Gale–Ryser-feasible (sorted descending, every prefix
// sum fits under totalSlots of its length), and V = totalSlots(m*) for the
// admitted count m*.
//
// Solve and the PrefixSolver run this admission on one demand value, over
// a histogram of the pool's locations by bin b = min(n, k): capping at the
// request count k is lossless, as m* ≤ k. Identical minima l make
// Gale–Ryser the single inequality m·l ≤ totalSlots(m), whose solutions
// form a prefix of 0..k (totalSlots is concave through the origin), so
// fastSlots advances m* while the next count fits; a growing pool only
// raises totalSlots, so a walk carries m* from step to step. Mixed minima
// replay the ascending-Min scan against the totalSlots table. A prefix
// step reads only totalSlots(m*); Solve distributes it over the admitted
// set (distribute).

// demand is a request list digested for the d = 1 engine, with the
// capacity histogram and admission state the engine runs on.
type demand struct {
	reqs     []Request
	k        int     // len(reqs)
	r0       float64 // reqs[0].Resources when k > 0
	maxL     int     // largest pool the d = 1 engine values; -1 = none
	homogMin int     // common Min when all equal, else -1
	order    []int   // ascending-Min request order (mixed minima only)

	hist     []int     // hist[b]: the pool's locations of bin b, b = 0..k
	fast     fastSlots // identical minima: the carried admission
	tslots   []int     // mixed minima: totalSlots(m) for m = 0..k
	minsDesc []int     // mixed minima: the admitted minima, descending
	admitted []int     // the admitted requests in admission order (see admit, solve)
}

// demandPool recycles Solve's digests; Solve runs on many goroutines at
// once, each with its own.
var demandPool = sync.Pool{New: func() any { return new(demand) }}

// init digests reqs over an empty pool, keeping d's buffers, and reports
// the first request Solve refuses.
func (d *demand) init(reqs []Request) error {
	if err := checkRequests(reqs); err != nil {
		return err
	}
	d.reqs, d.k, d.r0, d.maxL, d.homogMin = reqs, len(reqs), 0, math.MaxInt, -1
	if d.k > 0 {
		d.r0, d.homogMin = reqs[0].Resources, reqs[0].Min
	}
	for j := range reqs {
		r := &reqs[j]
		if r.Shape != 1 || r.Resources != d.r0 {
			d.maxL = -1
		} else if r.Max > 0 && r.Max < d.maxL {
			d.maxL = r.Max
		}
		if r.Min != d.homogMin {
			d.homogMin = -1
		}
	}
	d.hist = resize(d.hist, d.k+1)
	d.fast = fastSlots{}
	if d.homogMin < 0 && d.maxL >= 0 {
		d.order = d.order[:0]
		for j := range reqs {
			d.order = append(d.order, j)
		}
		slices.SortStableFunc(d.order, func(a, b int) int { return cmp.Compare(reqs[a].Min, reqs[b].Min) })
		d.tslots = resize(d.tslots, d.k+1)
	}
	return nil
}

// checkRequests reports the first request of reqs Solve refuses, and why.
func checkRequests(reqs []Request) error {
	for j := range reqs {
		switch r := &reqs[j]; {
		case !positiveFinite(r.Resources):
			return fmt.Errorf("allocation: request %d has non-positive or non-finite Resources", j)
		case !positiveFinite(r.Shape):
			return fmt.Errorf("allocation: request %d has non-positive or non-finite Shape", j)
		case r.Min < 0:
			return fmt.Errorf("allocation: request %d has negative Min", j)
		}
	}
	return nil
}

// positiveFinite reports whether v is a number in (0, +Inf): the range a
// request's Shape and Resources must lie in. The greedy engine's proof
// that its index makes the scan's decisions needs every gain to be a
// number, which a NaN or infinite Shape or Resources breaks.
func positiveFinite(v float64) bool {
	return v > 0 && !math.IsInf(v, 1)
}

// linear reports whether the d = 1 engine values a pool of poolL
// locations: uniform Resources, every Shape 1 and no Max below poolL.
func (d *demand) linear(poolL int) bool { return poolL <= d.maxL }

// bin returns the histogram bin of a location of the given capacity,
// min(⌊capacity/r0⌋, k). The quotient is compared in float64, so one past
// the int range cannot wrap on conversion.
func (d *demand) bin(capacity float64) int {
	if q := capacity / d.r0; q < float64(d.k) {
		return int(q)
	}
	return d.k
}

// fastSlots is the identical-minima admission over the histogram: m is
// the admitted count m*, slots = totalSlots(m) and above the number of
// locations with b > m, so totalSlots(m+1) = slots + above. Its methods
// take and return it by value, so a walk that holds it in a local keeps
// the three counters in registers.
type fastSlots struct {
	m, slots, above int
}

// add records count locations of bin b.
func (f fastSlots) add(hist []int, b, count int) fastSlots {
	hist[b] += count
	f.slots += count * min(b, f.m)
	if b > f.m {
		f.above += count
	}
	return f
}

// admit advances m* for identical minima l while m*+1 requests pass
// m·l ≤ totalSlots(m). Adding locations only raises totalSlots, so the
// previous m* stays feasible. With l = 0 a request is admitted only while
// it gains a slot (above > 0), so m* stops at the largest non-empty bin;
// with l above the pool size no m ≥ 1 passes.
func (f fastSlots) admit(hist []int, k, l int) fastSlots {
	for f.m < k && (f.m+1)*l <= f.slots+f.above && (l > 0 || f.above > 0) {
		f.slots += f.above
		f.m++
		f.above -= hist[f.m]
	}
	return f
}

// admit runs the admission against the histogram of a pool of poolL
// locations and returns totalSlots(m*). Identical minima advance the
// carried m*. Mixed minima replay the ascending-Min scan against the
// totalSlots table rebuilt from the histogram in O(k): a request whose
// minimum exceeds the pool, or that has minimum 0 and would gain no slot,
// is skipped; any other is admitted when the descending minima, its own
// inserted, still pass Gale–Ryser.
func (d *demand) admit(poolL int) int {
	if d.homogMin >= 0 {
		d.fast = d.fast.admit(d.hist, d.k, d.homogMin)
		return d.fast.slots
	}
	ts := d.tslots
	above := poolL - d.hist[0]
	for m := 0; m < d.k; m++ {
		ts[m+1] = ts[m] + above
		above -= d.hist[m+1]
	}
	admitted, minsDesc := d.admitted[:0], d.minsDesc[:0]
	for _, j := range d.order {
		l := d.reqs[j].Min
		if m := len(admitted); l > poolL || (l == 0 && ts[m+1] == ts[m]) {
			continue
		}
		pos := sort.Search(len(minsDesc), func(i int) bool { return minsDesc[i] < l })
		minsDesc = append(minsDesc, 0)
		copy(minsDesc[pos+1:], minsDesc[pos:])
		minsDesc[pos] = l
		feasible, prefix := true, 0
		for t, v := range minsDesc {
			if prefix += v; prefix > ts[t+1] {
				feasible = false
				break
			}
		}
		if !feasible {
			copy(minsDesc[pos:], minsDesc[pos+1:])
			minsDesc = minsDesc[:len(minsDesc)-1]
			continue
		}
		admitted = append(admitted, j)
	}
	d.admitted, d.minsDesc = admitted, minsDesc
	return ts[len(admitted)]
}

// solve is Solve's d = 1 engine over a pool of L locations: it files the
// pool into the histogram, admits, and distributes totalSlots(m*) over
// the admitted set.
func (d *demand) solve(pool Pool, L int) *Result {
	res := emptyResult(pool, d.reqs)
	for _, c := range pool.Classes {
		d.fast = d.fast.add(d.hist, d.bin(c.Capacity), c.Count)
	}
	total := d.admit(L)
	if d.homogMin >= 0 {
		// Identical minima: the stable ascending-Min order is the identity.
		d.admitted = d.admitted[:0]
		for j := range d.fast.m {
			d.admitted = append(d.admitted, j)
		}
	}
	d.distribute(res, pool.Classes, total, L)
	return res
}

// distribute fills res with the balanced maximal assignment of total
// slots to the admitted requests. Every request keeps its minimum, and
// the surplus raises the lowest counts toward a common level λ capped at
// L. Any distribution has equal utility at d = 1; balanced keeps X
// informative and matches the paper's short-term fair-share story.
func (d *demand) distribute(res *Result, classes []Class, total, L int) {
	m := len(d.admitted)
	if m == 0 {
		return
	}
	fill := func(lambda int) int {
		sum := 0
		for _, j := range d.admitted {
			sum += min(max(d.reqs[j].Min, lambda), L)
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
	assigned := 0
	for _, j := range d.admitted {
		x := min(max(d.reqs[j].Min, lo), L)
		// Spend the sub-λ remainder one unit at a time on requests
		// sitting exactly at the water level.
		if remainder > 0 && x == lo && x < L && d.reqs[j].Min <= lo {
			x++
			remainder--
		}
		res.X[j] = x
		res.Utility += float64(x)
		assigned += x
	}

	// Per-class consumption of the maximal balanced assignment: class c's
	// locations each host min(n_c, m) experiments; when not every slot
	// was handed out (demand-limited), the shortfall is spread evenly, as
	// experiments visit all locations uniformly until capacity binds.
	for c, cl := range classes {
		classSlots := cl.Count * min(d.bin(cl.Capacity), m)
		if assigned < total {
			classSlots = int(math.Round(float64(classSlots) * float64(assigned) / float64(total)))
		}
		res.SlotsByClass[c] = classSlots
		res.ConsumedByClass[c] = float64(classSlots) * d.r0
	}
	rebalanceSlots(res, assigned)
}
