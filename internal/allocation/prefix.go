package allocation

import (
	"fmt"
	"math"
	"sort"
)

// Incremental prefix allocation.
//
// The sampling Shapley engines evaluate V along the growing prefixes of a
// permutation: V({π1}), V({π1,π2}), ... V(N). Solved from scratch, every
// step rebuilds the pool and re-runs the full allocation problem (2) of
// Sec. 3.1, making a single permutation walk O(n²·solve). A PrefixSolver
// instead carries the solved state of the current prefix and updates it
// when one facility's class of locations joins the pool:
//
//   - on the Gale–Ryser fast path (uniform request resources, linear
//     utility, no binding Max — the paper's figure workloads), V equals
//     totalSlots(m*) for the greedily admitted count m*. The solver keeps
//     a histogram of the pool's locations by per-location capacity, so
//     adding a class is one counter update. With homogeneous minima the
//     feasible counts {m : m·l ≤ totalSlots(m)} form a prefix of 0..k
//     that only widens as the pool grows, so m* never decreases along a
//     walk: the solver carries m* and totalSlots(m*) and advances m*
//     in O(1) amortized per step. Heterogeneous minima replay solveFast's
//     admission against a totalSlots table rebuilt from the histogram in
//     O(k) — no pool rebuild, no admission-loop re-scan of the locations.
//   - on the general (greedy-engine) path, the solver repairs instead of
//     re-solving when it can certify that the repaired value equals a
//     fresh solveGreedy run: under the abundant-capacity certificate
//     (every pool class's per-location capacity covers the total resource
//     demand Σ_j r_j), the greedy provably admits every feasible request
//     and tops each up independently, so V has a closed form evaluated in
//     O(K). When the certificate fails, the solver falls back to a full
//     re-solve of the prefix pool (counted; see PrefixStats) — reading
//     the allocation memo but never inserting, so permutation walks do
//     not flood the table with one-off prefix keys.
//
// Add appends one class per step. Grow is the in-place variant for a
// pool whose classes the caller fixes up front (SetLayout): a step adds
// locations to an existing slot, as the collapsed class game does when a
// template's aggregated class gains a replica. Walk values a whole walk
// over a class list fixed up front (SetClasses) in one call, as the
// sampler's distinct-facility walks do: it reads each class's capacity
// bin, digested once, keeps the admitted count in locals while the
// homogeneous fast path holds, and builds the pool a fallback re-solves
// from the walked indices only when a step falls back. All three share
// the location and histogram accounting (fastSlots) and the one set of
// certification branches above; where neither branch applies, Grow
// reports the step uncertified and leaves valuing it to the caller
// instead of solving.
//
// Values are bit-identical to Solve on the fast path (all arithmetic is
// exact integer slot counting) and on the certified repair path (the
// closed form replays the greedy's own float operations in the same
// order); fallback steps call the same Solve the non-incremental path
// uses. A walk therefore produces the same float64 stream as calling
// Solve on every prefix, which is what keeps the samplers' fixed-seed
// determinism contract intact with the incremental path on or off.

// PrefixStats counts how a PrefixSolver's steps were served.
type PrefixStats struct {
	// Steps is the number of Add and Grow calls.
	Steps int64
	// Fast is the number of steps valued by the incremental exact
	// Gale–Ryser/analytic fast path.
	Fast int64
	// Repaired is the number of steps valued by the certified greedy
	// repair (abundant-capacity closed form).
	Repaired int64
	// Fallbacks is the number of steps no incremental path could
	// certify: Add re-solved the full prefix pool, Grow left the value
	// to its caller.
	Fallbacks int64
}

// PrefixSolver evaluates V over a growing pool of location classes for a
// fixed request list. It is stateful and NOT safe for concurrent use;
// create one per walker goroutine (they may share one Memo, which is
// concurrency-safe).
type PrefixSolver struct {
	reqs []Request
	memo *Memo

	// Request-list digests, fixed at construction.
	k          int     // len(reqs)
	r0         float64 // reqs[0].Resources when k > 0
	uniformRes bool    // all Resources == r0
	allLinear  bool    // all Shape == 1
	boundedMax int     // smallest positive Max among requests; 0 = none
	homogMin   int     // common Min when all equal, else -1
	sumRes     float64 // Σ_j Resources_j — the abundant-capacity bar

	// Pool state. classes is the pool Add builds, or the classes of a
	// Walk's first built steps, appended once a step falls back; slotCap
	// the capacities of the layout Grow fills; walkClasses the class
	// list Walk draws from, digested once into walkSteps.
	classes     []Class
	slotCap     []float64
	walkClasses []Class
	walkSteps   []stepClass
	built       int
	poolL       int
	scarce      int // steps that added locations of Capacity < sumRes; only == 0 is read

	// Fast-path slot accounting: hist[b] counts the pool's locations of
	// capped capacity b (see stepClass), fast the admitted count over it.
	hist []int
	fast fastSlots

	// Heterogeneous-minima admission replay: solveFast's ascending-Min
	// request order, the totalSlots table by admitted count, and the
	// descending minima multiset.
	order    []int
	tslots   []int
	minsDesc []int

	value float64
	stats PrefixStats
	// Flushed-to-metrics watermarks (see flushMetrics).
	flushedSteps, flushedFallbacks int64
}

// stepClass is what a step reads of the class it adds: its location
// count, its capped per-location experiment capacity
// b = min(⌊Capacity/r0⌋, k) (fast-eligible request lists only), and 1
// when it is scarce (Capacity < Σ_j Resources_j), else 0.
type stepClass struct {
	count, bin, scarce int
}

// fastSlots is the fast path's slot accounting over a histogram of the
// pool's locations by capped capacity. With homogeneous minima m is the
// admitted count m*, slots = totalSlots(m) and above the number of
// locations with b > m, so totalSlots(m+1) = slots + above. Its methods
// take and return it by value, so a walk that holds it in a local keeps
// the three counters in registers.
type fastSlots struct {
	m, slots, above int
}

// add records count locations of capped capacity b.
func (f fastSlots) add(hist []int, b, count int) fastSlots {
	hist[b] += count
	f.slots += count * min(b, f.m)
	if b > f.m {
		f.above += count
	}
	return f
}

// admit mirrors solveAnalytic's admission: identical minima l make
// Gale–Ryser the single inequality m·l ≤ totalSlots(m), whose solutions
// form a prefix of 0..k. Adding locations only raises totalSlots, so the
// previous step's m* stays feasible and the new m* is found by advancing
// it. With l = 0 m* runs to k, where totalSlots equals solveAnalytic's
// totalSlots(min(k, max b)); with l above the pool size no m ≥ 1 passes.
func (f fastSlots) admit(hist []int, k, l int) fastSlots {
	for f.m < k && (f.m+1)*l <= f.slots+f.above {
		f.slots += f.above
		f.m++
		f.above -= hist[f.m]
	}
	return f
}

// NewPrefixSolver builds a solver for the given request list. The memo,
// when non-nil, is consulted (read-only) on fallback steps; pass nil to
// always re-solve directly. It validates the requests with the same rules
// Solve enforces.
func NewPrefixSolver(reqs []Request, memo *Memo) (*PrefixSolver, error) {
	for j, r := range reqs {
		if !positiveFinite(r.Resources) {
			return nil, fmt.Errorf("allocation: request %d has non-positive or non-finite Resources", j)
		}
		if !positiveFinite(r.Shape) {
			return nil, fmt.Errorf("allocation: request %d has non-positive or non-finite Shape", j)
		}
		if r.Min < 0 {
			return nil, fmt.Errorf("allocation: request %d has negative Min", j)
		}
	}
	ps := &PrefixSolver{
		reqs:       reqs,
		memo:       memo,
		k:          len(reqs),
		uniformRes: true,
		allLinear:  true,
		homogMin:   -1,
	}
	if ps.k > 0 {
		ps.r0 = reqs[0].Resources
		ps.homogMin = reqs[0].Min
	}
	for _, r := range reqs {
		if r.Resources != ps.r0 {
			ps.uniformRes = false
		}
		if r.Shape != 1 {
			ps.allLinear = false
		}
		if r.Max > 0 && (ps.boundedMax == 0 || r.Max < ps.boundedMax) {
			ps.boundedMax = r.Max
		}
		if r.Min != ps.homogMin {
			ps.homogMin = -1
		}
		ps.sumRes += r.Resources
	}
	if ps.fastEligible() {
		ps.hist = make([]int, ps.k+1)
		if ps.homogMin < 0 {
			ps.order = make([]int, ps.k)
			for i := range ps.order {
				ps.order[i] = i
			}
			sort.SliceStable(ps.order, func(a, b int) bool {
				return reqs[ps.order[a]].Min < reqs[ps.order[b]].Min
			})
			ps.tslots = make([]int, ps.k+1)
			ps.minsDesc = make([]int, 0, ps.k)
		}
	}
	return ps, nil
}

// fastEligible reports whether the fast path can ever apply to this
// request list (the remaining condition — no Max binding below the pool
// size — depends on the current pool and is checked per step).
func (ps *PrefixSolver) fastEligible() bool {
	return ps.k > 0 && ps.uniformRes && ps.allLinear
}

// Reset empties the pool, starting a new walk; a layout set by SetLayout
// stays, with every slot empty. Counter deltas accumulated since the
// previous flush are published to the process metrics.
func (ps *PrefixSolver) Reset() {
	ps.flushMetrics()
	ps.classes = ps.classes[:0]
	ps.built = 0
	ps.poolL = 0
	ps.scarce = 0
	clear(ps.hist)
	ps.fast = fastSlots{}
	ps.value = 0
}

// flushMetrics publishes counter deltas since the last flush to the
// process-wide prefix metrics. Called from Reset so the hot Add path pays
// no atomic operations.
func (ps *PrefixSolver) flushMetrics() {
	if d := ps.stats.Steps - ps.flushedSteps; d > 0 {
		prefixStepsTotal.Add(d)
		ps.flushedSteps = ps.stats.Steps
	}
	if d := ps.stats.Fallbacks - ps.flushedFallbacks; d > 0 {
		prefixFallbacksTotal.Add(d)
		ps.flushedFallbacks = ps.stats.Fallbacks
	}
}

// Stats returns the solver's step counters (flushing them to the process
// metrics as a side effect).
func (ps *PrefixSolver) Stats() PrefixStats {
	ps.flushMetrics()
	return ps.stats
}

// Value returns V of the current pool; NaN after an uncertified Grow,
// whose value the solver does not know.
func (ps *PrefixSolver) Value() float64 { return ps.value }

// Add grows the pool by one class and returns the new V — exactly
// Solve(pool, reqs).Utility for the accumulated pool. It panics on
// invalid classes, mirroring Solve.
func (ps *PrefixSolver) Add(c Class) float64 {
	checkClass(c)
	ps.classes = append(ps.classes, c)
	v, ok := ps.step(ps.stepClass(c.Count, c.Capacity))
	if !ok {
		v = ps.fallbackValue()
	}
	ps.value = v
	return v
}

// checkClass panics on a class Solve would refuse.
func checkClass(c Class) {
	if c.Count < 0 {
		panic(fmt.Sprintf("allocation: class %s has negative count", c.Label))
	}
	if c.Capacity < 0 {
		panic(fmt.Sprintf("allocation: class %s has negative capacity", c.Label))
	}
}

// SetClasses fixes the class list Walk draws from and empties the pool.
// The solver keeps classes, which the caller must not change, and
// digests each class once. It panics on invalid classes, mirroring Solve.
func (ps *PrefixSolver) SetClasses(classes []Class) {
	ps.walkSteps = ps.walkSteps[:0]
	for _, c := range classes {
		checkClass(c)
		ps.walkSteps = append(ps.walkSteps, ps.stepClass(c.Count, c.Capacity))
	}
	ps.walkClasses = classes
	ps.Reset()
}

// Walk values one whole walk over the classes SetClasses fixed: it
// empties the pool, adds classes[order[0]], classes[order[1]], … and
// sets vals[n] to V after the (n+1)th, for every n < len(order). A class
// without locations leaves the pool, V and the step counters as they
// are, as a pool that omits it would. The values, the pool a fallback
// solves and the counters are those of Add over the walked classes with
// locations, bit for bit. A walk ends when Walk returns; the next starts
// with Walk or Reset, not Add.
func (ps *PrefixSolver) Walk(order []int, vals []float64) {
	ps.Reset()
	n := 0
	if ps.homogMin >= 0 && ps.fastEligible() {
		n = ps.walkHomog(order, vals)
	}
	for ; n < len(order); n++ {
		if sc := ps.walkSteps[order[n]]; sc.count > 0 {
			v, ok := ps.step(sc)
			if !ok {
				v = ps.walkFallback(order, n)
			}
			ps.value = v
		}
		vals[n] = ps.value
	}
}

// walkHomog takes Walk's steps while the homogeneous-minima fast path
// values them — every step, unless a bounded Max starts to bind — and
// returns how many it took. It is step's fast branch with the pool size
// and fastSlots held in locals, which the compiler keeps in registers;
// DESIGN.md §5.5 gives what that saves a walk.
func (ps *PrefixSolver) walkHomog(order []int, vals []float64) int {
	steps, hist, k, l := ps.walkSteps, ps.hist, ps.k, ps.homogMin
	f, poolL, scarce, added := ps.fast, ps.poolL, ps.scarce, int64(0)
	n := 0
	for ; n < len(order); n++ {
		sc := steps[order[n]]
		if sc.count > 0 {
			if ps.maxBinds(poolL + sc.count) {
				break // Max binds from here on: step() values the rest
			}
			poolL += sc.count
			scarce += sc.scarce
			f = f.add(hist, sc.bin, sc.count).admit(hist, k, l)
			added++
		}
		vals[n] = float64(f.slots)
	}
	ps.fast, ps.poolL, ps.scarce = f, poolL, scarce
	ps.stats.Steps += added
	ps.stats.Fast += added
	ps.value = float64(f.slots)
	return n
}

// walkFallback re-solves the pool after step n of a walk, first appending
// the walked classes with locations that the pool does not hold yet.
func (ps *PrefixSolver) walkFallback(order []int, n int) float64 {
	for ; ps.built <= n; ps.built++ {
		if c := ps.walkClasses[order[ps.built]]; c.Count > 0 {
			ps.classes = append(ps.classes, c)
		}
	}
	return ps.fallbackValue()
}

// SetLayout fixes the pool layout Grow fills and empties the pool: slot
// i is a class of per-location capacity capacities[i], starting with no
// locations. One walk grows the pool by Add or by Grow, never both. It
// panics on a negative capacity, mirroring Solve.
func (ps *PrefixSolver) SetLayout(capacities []float64) {
	for i, c := range capacities {
		if c < 0 {
			panic(fmt.Sprintf("allocation: slot %d has negative capacity", i))
		}
	}
	ps.slotCap = append(ps.slotCap[:0], capacities...)
	ps.Reset()
}

// Grow adds count locations to slot i of the layout in place. When a
// certified path values the grown pool, it returns V with ok set —
// exactly Solve(pool, reqs).Utility for the pool of the non-empty slots
// in slot order. Otherwise ok is false and the step is counted as a
// fallback: Grow neither solves nor reads the memo, and V is the
// caller's to find. Certification depends only on the slots' location
// counts, never on the walk that reached them.
func (ps *PrefixSolver) Grow(i, count int) (v float64, ok bool) {
	if count < 0 {
		panic(fmt.Sprintf("allocation: slot %d grown by negative count %d", i, count))
	}
	v, ok = ps.step(ps.stepClass(count, ps.slotCap[i]))
	ps.value = v
	return v, ok
}

// stepClass digests count locations of the given capacity for step.
func (ps *PrefixSolver) stepClass(count int, capacity float64) stepClass {
	sc := stepClass{count: count}
	if capacity < ps.sumRes {
		sc.scarce = 1
	}
	if ps.hist != nil {
		sc.bin = min(int(math.Floor(capacity/ps.r0)), ps.k)
	}
	return sc
}

// step adds a class's locations to the pool's location and histogram
// accounting, then values the pool on the cheapest certified path that
// reproduces Solve: incremental fast path, then certified greedy repair.
// When neither applies, it counts a fallback and returns NaN with ok
// false.
func (ps *PrefixSolver) step(sc stepClass) (v float64, ok bool) {
	ps.stats.Steps++
	if sc.count > 0 {
		ps.poolL += sc.count
		ps.scarce += sc.scarce
		if ps.hist != nil {
			ps.fast = ps.fast.add(ps.hist, sc.bin, sc.count)
		}
	}
	if ps.k == 0 {
		// Solve of an empty request list is 0 on every pool.
		ps.stats.Fast++
		return 0, true
	}
	// Mirror of fastApplies: uniform resources, all shapes 1, and no Max
	// binding below the current pool size.
	if ps.fastEligible() && !ps.maxBinds(ps.poolL) {
		ps.stats.Fast++
		return float64(ps.fastValue()), true
	}
	if ps.scarce == 0 {
		ps.stats.Repaired++
		return ps.abundantValue(), true
	}
	ps.stats.Fallbacks++
	return math.NaN(), false
}

// maxBinds reports whether some request's Max is below poolL, which takes
// a pool of poolL locations off the fast path.
func (ps *PrefixSolver) maxBinds(poolL int) bool {
	return ps.boundedMax > 0 && ps.boundedMax < poolL
}

// fastValue is the incremental fast path: V = totalSlots(m*) with m* the
// admitted count, carried across steps for homogeneous minima (the
// analytic engine's domain) and by admission replay otherwise.
func (ps *PrefixSolver) fastValue() int {
	if ps.homogMin >= 0 {
		ps.fast = ps.fast.admit(ps.hist, ps.k, ps.homogMin)
		return ps.fast.slots
	}
	return ps.heteroFastValue()
}

// heteroFastValue replays solveFast's admission loop — ascending-Min
// scan, insertion into the descending minima multiset, Gale–Ryser prefix
// feasibility — against a totalSlots table rebuilt from the histogram, so
// no per-step pool or class-table rebuild happens.
func (ps *PrefixSolver) heteroFastValue() int {
	ts := ps.tslots
	above := ps.poolL - ps.hist[0]
	for m := 0; m < ps.k; m++ {
		ts[m+1] = ts[m] + above
		above -= ps.hist[m+1]
	}
	admitted := 0
	minsDesc := ps.minsDesc[:0]
	for _, j := range ps.order {
		min := ps.reqs[j].Min
		if min > ps.poolL {
			continue
		}
		if min == 0 && ts[admitted+1] == ts[admitted] {
			continue
		}
		pos := sort.Search(len(minsDesc), func(i int) bool { return minsDesc[i] < min })
		minsDesc = append(minsDesc, 0)
		copy(minsDesc[pos+1:], minsDesc[pos:])
		minsDesc[pos] = min
		feasible := true
		prefix := 0
		for t, v := range minsDesc {
			prefix += v
			if prefix > ts[t+1] {
				feasible = false
				break
			}
		}
		if !feasible {
			copy(minsDesc[pos:], minsDesc[pos+1:])
			minsDesc = minsDesc[:len(minsDesc)-1]
			continue
		}
		admitted++
	}
	ps.minsDesc = minsDesc[:0]
	return ts[admitted]
}

// abundantValue is the certified greedy repair. Certificate: every class
// in the pool has per-location capacity ≥ Σ_j Resources_j, so a location
// can host every request at once and capacity never binds. Under it,
// greedyWithOrder provably (a) admits exactly the requests with
// Min ≤ maxLocations(L) in either admission order, (b) gives each its
// minimum in Phase A, and (c) tops each up independently in Phase B until
// its Max, the pool size, or the 1e-12 marginal-gain cutoff stops it.
// Both greedy orders therefore produce the same per-request counts and
// the same utility, which this closed form reproduces — including float
// summation order — bit-for-bit.
func (ps *PrefixSolver) abundantValue() float64 {
	u := 0.0
	for j := range ps.reqs {
		r := &ps.reqs[j]
		maxX := r.maxLocations(ps.poolL)
		if r.Min > maxX {
			continue
		}
		u += r.Utility(greedyTopUp(r, maxX))
	}
	return u
}

// greedyTopUp returns the location count greedy Phase B reaches for an
// admitted request when locations are never scarce: starting from Min,
// take another location while the marginal utility gain exceeds the
// greedy's 1e-12 cutoff, up to maxX. The gain (x+1)^d − x^d is monotone
// in x on x ≥ Min (increasing for d ≥ 1, decreasing for d < 1), so the
// stopping point is found by inspection or binary search.
func greedyTopUp(r *Request, maxX int) int {
	x := r.Min
	if x >= maxX {
		return x
	}
	gain := func(x int) float64 { return r.Utility(x+1) - r.Utility(x) }
	if gain(x) <= 1e-12 {
		return x
	}
	if gain(maxX-1) > 1e-12 {
		return maxX
	}
	// Decreasing gains (d < 1): largest t with every gain on the way
	// above the cutoff, i.e. gain(t-1) > 1e-12.
	lo, hi := x+1, maxX
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if gain(mid-1) > 1e-12 {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// fallbackValue re-solves the whole prefix pool: memo read first (repeated
// aggregate keys — e.g. symmetric prefixes — still hit), then a direct
// solve that is deliberately NOT inserted, so one-off prefix keys cannot
// flood the memo.
func (ps *PrefixSolver) fallbackValue() float64 {
	pool := Pool{Classes: ps.classes}
	if ps.memo != nil {
		if res, ok := ps.memo.Lookup(pool, ps.reqs); ok {
			return res.Utility
		}
	}
	return Solve(pool, ps.reqs).Utility
}
