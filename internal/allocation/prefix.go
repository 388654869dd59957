package allocation

import "math"

// Incremental prefix allocation.
//
// The sampling Shapley engines evaluate V along the growing prefixes of a
// permutation: V({π1}), V({π1,π2}), ... V(N). Solved from scratch, every
// step rebuilds the pool and re-runs the full allocation problem (2) of
// Sec. 3.1, making a single permutation walk O(n²·solve). A PrefixSolver
// instead carries the solved state of the current prefix and updates it
// when one class of locations joins the pool:
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
//     O(K). When the certificate fails, the step is a fallback (counted;
//     see PrefixStats): the pool of the walked classes is built and
//     re-solved with Solve, with no cache in between.
//
// A walk draws from one class list, fixed up front and digested once
// (SetClasses): each class's location count, capacity bin and scarcity.
// WalkCertified values a walk's leading certified steps in one call and
// returns how many there were: it keeps the admitted count in locals while
// the homogeneous fast path holds, then takes step's fast and repair
// branches. Certification is monotone along a walk — a step is certified
// while the pool is within the d = 1 engine's reach (poolL ≤ maxL) or holds
// no scarce class, and poolL and the scarce count only grow — so every
// step after the first uncertified one is uncertified too, and each caller
// values those its own way. Walk, the sampler's distinct-facility walk,
// re-solves each of them; the collapsed class game, whose classes are the
// templates (a replica of template j extends by class j again), reads them
// from its count-vector memo. Extend takes one step, adding classes[i],
// and reports whether a certified path valued the pool; Resolve re-solves
// the walked pool after an uncertified one. Every path takes the same
// steps and builds a fallback's pool the same way, from the walked
// indices.
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
	// Steps is the number of steps that added locations: a step adding a
	// class without any leaves the counters alone.
	Steps int64
	// Fast is the number of steps valued by the d = 1 engine's
	// Gale–Ryser admission.
	Fast int64
	// Repaired is the number of steps valued by the certified greedy
	// repair (abundant-capacity closed form).
	Repaired int64
	// Fallbacks is the number of steps no incremental path could
	// certify: Walk re-solved the pool, WalkCertified and Extend left it
	// to their caller.
	Fallbacks int64
}

// PrefixSolver evaluates V over a growing pool of location classes for a
// fixed request list. It is stateful and NOT safe for concurrent use;
// create one per walker goroutine.
type PrefixSolver struct {
	demand         // the request list, the histogram and the fast path's admission
	sumRes float64 // Σ_j Resources_j — the abundant-capacity bar

	// classes is the class list SetClasses fixed, digested once into
	// steps. walked holds the class indices Extend has added since the
	// last Reset. pool holds the classes with locations of the first
	// built steps of a walk, appended once a step falls back.
	classes []Class
	steps   []stepClass
	walked  []int
	pool    []Class
	built   int
	poolL   int
	scarce  int // steps that added locations of Capacity < sumRes; only == 0 is read

	value float64
	ok    bool // value is V of the pool
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

// NewPrefixSolver builds a solver for the given request list. It
// validates the requests with the same rules Solve enforces.
func NewPrefixSolver(reqs []Request) (*PrefixSolver, error) {
	ps := &PrefixSolver{ok: true}
	if err := ps.init(reqs); err != nil {
		return nil, err
	}
	for _, r := range reqs {
		ps.sumRes += r.Resources
	}
	return ps, nil
}

// Reset empties the pool, starting a new walk. Counter deltas
// accumulated since the previous flush are published to the process
// metrics.
func (ps *PrefixSolver) Reset() {
	ps.flushMetrics()
	ps.walked = ps.walked[:0]
	ps.pool = ps.pool[:0]
	ps.built = 0
	ps.poolL = 0
	ps.scarce = 0
	clear(ps.hist)
	ps.fast = fastSlots{}
	ps.value, ps.ok = 0, true
}

// flushMetrics publishes counter deltas since the last flush to the
// process-wide prefix metrics. Called from Reset so the hot step path
// pays no atomic operations.
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

// SetClasses fixes the class list every walk draws from and empties
// the pool. The solver keeps classes, which the caller must not change,
// and digests each class once. It panics on invalid classes, mirroring
// Solve.
func (ps *PrefixSolver) SetClasses(classes []Class) {
	ps.steps = ps.steps[:0]
	for i, c := range classes {
		if err := checkClass(i, c); err != nil {
			panic(err)
		}
		sc := stepClass{count: c.Count, bin: ps.bin(c.Capacity)}
		if c.Capacity < ps.sumRes {
			sc.scarce = 1
		}
		ps.steps = append(ps.steps, sc)
	}
	ps.classes = classes
	ps.Reset()
}

// Extend adds classes[i] to the pool. When a certified path values the
// grown pool, it returns V with ok set — exactly Solve(pool, reqs).Utility
// for the pool of the classes added since Reset that have locations, in
// the order added. Otherwise ok is false and the step is counted as a
// fallback: Extend does not solve, and V is Resolve's to find. A class
// without locations leaves the pool, V, ok and the step counters as they
// are. Certification depends only on the multiset of classes added, never
// on the order that reached it.
func (ps *PrefixSolver) Extend(i int) (v float64, ok bool) {
	ps.walked = append(ps.walked, i)
	if sc := ps.steps[i]; sc.count > 0 {
		ps.value, ps.ok = ps.step(sc)
	}
	return ps.value, ps.ok
}

// Resolve returns V of the pool Extend has grown, solving the pool with
// Solve; call it after an uncertified step. A later Extend that adds no
// locations returns the resolved value as certain.
func (ps *PrefixSolver) Resolve() float64 {
	ps.value, ps.ok = ps.fallback(ps.walked, len(ps.walked)-1), true
	return ps.value
}

// WalkCertified values the leading certified steps of one walk over the
// class list: it empties the pool, takes the steps of Extend(order[0]),
// Extend(order[1]), … while a certified path values them, sets vals[n] to
// V after the (n+1)th, and returns how many steps it valued. Since
// certification is monotone along a walk, every step from the returned
// index on is uncertified: each of those that adds locations is counted
// as a fallback, and vals from that index on are the caller's to set. The
// values and counters are those of the Extend loop, bit for bit, and the
// counters are published to the process metrics before it returns. A walk
// ends when WalkCertified returns; the next starts with a walk or Reset,
// not Extend.
func (ps *PrefixSolver) WalkCertified(order []int, vals []float64) int {
	ps.Reset()
	n := 0
	if ps.homogMin >= 0 {
		n = ps.walkHomog(order, vals)
	}
	for ; n < len(order); n++ {
		if sc := ps.steps[order[n]]; sc.count > 0 {
			v, ok := ps.step(sc)
			if !ok {
				break
			}
			ps.value = v
		}
		vals[n] = ps.value
	}
	if n < len(order) {
		// step counted step n's fallback; count the later ones.
		for _, i := range order[n+1:] {
			if ps.steps[i].count > 0 {
				ps.stats.Steps++
				ps.stats.Fallbacks++
			}
		}
	}
	ps.flushMetrics()
	return n
}

// Walk values one whole walk over the class list: it sets vals[n] to V
// after the (n+1)th step of Extend(order[0]), Extend(order[1]), … for every
// n < len(order). WalkCertified values the leading certified steps, and
// each later step that adds locations is re-solved as Resolve would. The
// values, the pool a fallback solves and the counters are those of that
// Extend loop, bit for bit. A walk ends when Walk returns; the next starts
// with a walk or Reset, not Extend.
func (ps *PrefixSolver) Walk(order []int, vals []float64) {
	for n := ps.WalkCertified(order, vals); n < len(order); n++ {
		if ps.steps[order[n]].count > 0 {
			ps.value = ps.fallback(order, n)
		}
		vals[n] = ps.value
	}
}

// walkHomog takes a walk's steps while the homogeneous-minima fast path
// values them — every step of a uniform linear request list, unless a
// bounded Max starts to bind — and returns how many it took. It is step's
// fast branch with the pool size and fastSlots held in locals, which the
// compiler keeps in registers; DESIGN.md §5.5 gives what that saves a
// walk.
func (ps *PrefixSolver) walkHomog(order []int, vals []float64) int {
	steps, hist, k, l := ps.steps, ps.hist, ps.k, ps.homogMin
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

// fallback solves the pool after step n of the walk order — the walked
// order of Extend, or Walk's — first appending the walked classes with
// locations that the pool does not hold yet. The order is read, never
// kept: Walk's belongs to its caller.
func (ps *PrefixSolver) fallback(order []int, n int) float64 {
	for ; ps.built <= n; ps.built++ {
		if c := ps.classes[order[ps.built]]; c.Count > 0 {
			ps.pool = append(ps.pool, c)
		}
	}
	return Solve(Pool{Classes: ps.pool}, ps.reqs).Utility
}

// step adds a class's locations (sc.count > 0) to the pool's location
// and histogram accounting, then values the pool on the cheapest
// certified path that reproduces Solve: the d = 1 engine's admission,
// then certified greedy repair. When neither applies, it counts a
// fallback and returns NaN with ok false.
func (ps *PrefixSolver) step(sc stepClass) (v float64, ok bool) {
	ps.stats.Steps++
	ps.poolL += sc.count
	ps.scarce += sc.scarce
	ps.fast = ps.fast.add(ps.hist, sc.bin, sc.count)
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
