package allocation

import (
	"fmt"
	"math"
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
//     totalSlots(m*) for the admitted count m*, computed by the d = 1
//     engine Solve itself runs (linear.go). The solver keeps that engine's
//     histogram of the pool's locations by capacity bin, so adding a class
//     is one counter update. With homogeneous minima m* never decreases
//     along a walk: the solver carries m* and totalSlots(m*) and advances
//     m* in O(1) amortized per step. Heterogeneous minima replay the
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
// Values are bit-identical to Solve on the fast path (Solve runs the same
// admission, and all its arithmetic is exact integer slot counting) and on
// the certified repair path (the closed form replays the greedy's own
// float operations in the same order); fallback steps call the same Solve
// the non-incremental path uses. A walk therefore produces the same
// float64 stream as calling Solve on every prefix, which is what keeps the
// samplers' fixed-seed determinism contract intact with the incremental
// path on or off.

// PrefixStats counts how a PrefixSolver's steps were served.
type PrefixStats struct {
	// Steps is the number of Add and Grow calls.
	Steps int64
	// Fast is the number of steps valued by the d = 1 engine's
	// Gale–Ryser admission.
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
	demand // the request list, the histogram and the fast path's admission
	memo   *Memo
	sumRes float64 // Σ_j Resources_j — the abundant-capacity bar

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

	value float64
	stats PrefixStats
	// Flushed-to-metrics watermarks (see flushMetrics).
	flushedSteps, flushedFallbacks int64
}

// stepClass is what a step reads of the class it adds: its location
// count, its histogram bin (see demand.bin), and 1 when it is scarce
// (Capacity < Σ_j Resources_j), else 0.
type stepClass struct {
	count, bin, scarce int
}

// NewPrefixSolver builds a solver for the given request list. The memo,
// when non-nil, is consulted (read-only) on fallback steps; pass nil to
// always re-solve directly. It validates the requests with the same rules
// Solve enforces.
func NewPrefixSolver(reqs []Request, memo *Memo) (*PrefixSolver, error) {
	ps := &PrefixSolver{memo: memo}
	if err := ps.init(reqs); err != nil {
		return nil, err
	}
	for _, r := range reqs {
		ps.sumRes += r.Resources
	}
	return ps, nil
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
	if err := checkClass(len(ps.classes), c); err != nil {
		panic(err)
	}
	ps.classes = append(ps.classes, c)
	v, ok := ps.step(ps.stepClass(c.Count, c.Capacity))
	if !ok {
		v = ps.fallbackValue()
	}
	ps.value = v
	return v
}

// SetClasses fixes the class list Walk draws from and empties the pool.
// The solver keeps classes, which the caller must not change, and
// digests each class once. It panics on invalid classes, mirroring Solve.
func (ps *PrefixSolver) SetClasses(classes []Class) {
	ps.walkSteps = ps.walkSteps[:0]
	for i, c := range classes {
		if err := checkClass(i, c); err != nil {
			panic(err)
		}
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
	if ps.homogMin >= 0 {
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
// values them — every step of a uniform linear request list, unless a
// bounded Max starts to bind — and returns how many it took. It is step's
// fast branch with the pool size and fastSlots held in locals, which the
// compiler keeps in registers; DESIGN.md §5.5 gives what that saves a
// walk.
func (ps *PrefixSolver) walkHomog(order []int, vals []float64) int {
	steps, hist, k, l := ps.walkSteps, ps.hist, ps.k, ps.homogMin
	f, poolL, scarce, added := ps.fast, ps.poolL, ps.scarce, int64(0)
	n := 0
	for ; n < len(order); n++ {
		sc := steps[order[n]]
		if sc.count > 0 {
			if !ps.linear(poolL + sc.count) {
				break // step() values the rest
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
		if err := checkClass(i, Class{Label: "slot", Capacity: c}); err != nil {
			panic(err)
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
	sc := stepClass{count: count, bin: ps.bin(capacity)}
	if capacity < ps.sumRes {
		sc.scarce = 1
	}
	return sc
}

// step adds a class's locations to the pool's location and histogram
// accounting, then values the pool on the cheapest certified path that
// reproduces Solve: the d = 1 engine's admission, then certified greedy
// repair. When neither applies, it counts a fallback and returns NaN with
// ok false.
func (ps *PrefixSolver) step(sc stepClass) (v float64, ok bool) {
	ps.stats.Steps++
	if sc.count > 0 {
		ps.poolL += sc.count
		ps.scarce += sc.scarce
		ps.fast = ps.fast.add(ps.hist, sc.bin, sc.count)
	}
	if ps.linear(ps.poolL) {
		ps.stats.Fast++
		return float64(ps.admit(ps.poolL)), true
	}
	if ps.scarce == 0 {
		ps.stats.Repaired++
		return ps.abundantValue(), true
	}
	ps.stats.Fallbacks++
	return math.NaN(), false
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
