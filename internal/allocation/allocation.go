// Package allocation solves the resource-allocation problems of Sec. 3.1 of
// the paper: assign experiments to distinct locations so as to maximize
// total utility (the commercial problem (2)), optionally under the
// individual-rationality constraints of the P2P problem (3).
//
// The model: a pool of locations, each with a resource capacity; a list of
// experiment requests, each needing between Min and Max *distinct* locations,
// consuming Resources units at every assigned location, and yielding utility
// x^Shape when assigned x >= Min locations (0 otherwise, i.e. rejected).
//
// Two engines are provided:
//
//   - an exact engine for linear utility d = 1 with uniform resources and
//     no binding Max (the paper's figure workloads): Gale–Ryser admission
//     over a capacity histogram, shared with the incremental PrefixSolver
//     (see linear.go);
//   - a constructive greedy simulator for the general case (heterogeneous
//     resources, bounded Max, nonlinear shapes), which also yields the
//     per-class consumption needed by the consumption-proportional share ρ̂.
//
// Solve picks the d = 1 engine automatically when it applies; the two
// engines agree on their common domain (checked in tests against a
// brute-force oracle).
package allocation

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
)

// Class is a group of interchangeable locations with a common per-location
// resource capacity. In the paper's model a facility i contributes Count =
// L_i locations of capacity R_i each.
type Class struct {
	Label    string
	Count    int
	Capacity float64
}

// Pool is the federated supply: the union of every participating facility's
// location classes.
type Pool struct {
	Classes []Class
}

// TotalLocations returns the number of distinct locations in the pool.
func (p Pool) TotalLocations() int {
	n := 0
	for _, c := range p.Classes {
		n += c.Count
	}
	return n
}

// TotalCapacity returns the total resource units across all locations.
func (p Pool) TotalCapacity() float64 {
	t := 0.0
	for _, c := range p.Classes {
		t += float64(c.Count) * c.Capacity
	}
	return t
}

// Validate checks the pool for modelling errors.
func (p Pool) Validate() error {
	for i, c := range p.Classes {
		if err := checkClass(i, c); err != nil {
			return err
		}
	}
	return nil
}

// checkClass reports why Solve refuses class i of a pool, if it does.
func checkClass(i int, c Class) error {
	if c.Count < 0 {
		return fmt.Errorf("allocation: class %d (%s) has negative count", i, c.Label)
	}
	if c.Capacity < 0 {
		return fmt.Errorf("allocation: class %d (%s) has negative capacity", i, c.Label)
	}
	if math.IsNaN(c.Capacity) {
		return fmt.Errorf("allocation: class %d (%s) has NaN capacity", i, c.Label)
	}
	return nil
}

// Request is one experiment's demand.
type Request struct {
	Min       int     // minimum distinct locations (diversity threshold l)
	Max       int     // maximum distinct locations; <= 0 means unbounded
	Shape     float64 // utility exponent d
	Resources float64 // units consumed at each assigned location (r)
	Label     string
}

// Utility returns the request's utility for x assigned locations.
func (r Request) Utility(x int) float64 {
	if x <= 0 || x < r.Min {
		return 0
	}
	return math.Pow(float64(x), r.Shape)
}

func (r Request) maxLocations(pool int) int {
	if r.Max <= 0 || r.Max > pool {
		return pool
	}
	return r.Max
}

// Result is an allocation outcome.
type Result struct {
	// X[j] is the number of distinct locations assigned to request j
	// (0 = rejected).
	X []int
	// Utility is the total utility of the allocation.
	Utility float64
	// ConsumedByClass[c] is the resource units consumed at class c's
	// locations — the basis of the ρ̂ consumption share.
	ConsumedByClass []float64
	// SlotsByClass[c] is the number of (experiment, location) assignments
	// landing in class c.
	SlotsByClass []int
}

// Solve maximizes total utility for the given pool and requests
// (problem (2) of the paper). It panics on invalid inputs to surface
// modelling errors; validate pools and requests at construction time.
func Solve(pool Pool, reqs []Request) *Result {
	if err := pool.Validate(); err != nil {
		panic(err)
	}
	d := demandPool.Get().(*demand)
	defer demandPool.Put(d)
	if err := d.init(reqs); err != nil {
		panic(err)
	}
	if L := pool.TotalLocations(); d.linear(L) {
		return d.solve(pool, L)
	}
	return solveGreedy(pool, reqs)
}

// emptyResult allocates a zeroed Result shaped for (pool, reqs).
func emptyResult(pool Pool, reqs []Request) *Result {
	nc := len(pool.Classes)
	return &Result{
		X:               make([]int, len(reqs)),
		ConsumedByClass: make([]float64, nc),
		SlotsByClass:    make([]int, nc),
	}
}

// rebalanceSlots fixes rounding so Σ SlotsByClass == assigned exactly.
func rebalanceSlots(res *Result, assigned int) {
	sum := 0
	for _, s := range res.SlotsByClass {
		sum += s
	}
	diff := assigned - sum
	for c := 0; diff != 0 && c < len(res.SlotsByClass); c++ {
		step := 1
		if diff < 0 {
			step = -1
		}
		if res.SlotsByClass[c]+step >= 0 {
			unit := res.ConsumedByClass[c]
			if res.SlotsByClass[c] > 0 {
				unit = res.ConsumedByClass[c] / float64(res.SlotsByClass[c])
			}
			res.SlotsByClass[c] += step
			res.ConsumedByClass[c] += float64(step) * unit
			diff -= step
		}
	}
}

// solveGreedy is the general constructive engine: admit requests (trying
// both ascending- and descending-Min orders), give each admitted request its
// minimum from the most preferred free locations, then hand out one
// location at a time to the request with the best marginal utility. Exact
// for concave shapes on its admission set; a high-quality heuristic for
// convex shapes (validated against brute force on small instances).
func solveGreedy(pool Pool, reqs []Request) *Result {
	s := greedyScratchPool.Get().(*greedyScratch)
	defer greedyScratchPool.Put(s)
	return s.solve(pool, reqs)
}

// greedyScratchPool recycles the greedy engine's working state across
// calls; Solve runs on many goroutines at once, each with its own scratch.
var greedyScratchPool = sync.Pool{New: func() any { return new(greedyScratch) }}

// powTables is how many power tables a scratch holds before a new shape
// takes over an old shape's table. A call binds a table to every distinct
// shape it reads, so a call reading more shapes grows the set past it.
const powTables = 4

// greedyScratch is the greedy engine's working state: the location index,
// the per-request bookkeeping of one run, and the power tables that
// outlive it.
type greedyScratch struct {
	idx      locIndex
	class    []int     // class[li]: the pool class of location li
	used     []uint64  // request j's locations: used[j*words : (j+1)*words]
	x        []int     // locations assigned to each request
	admitted []bool    // request met its minimum
	gain     []float64 // Utility(x+1) - Utility(x) of each request in heap
	heap     []int     // top-up candidates, best first (see before)
	order    []int     // admission order
	take     []int     // locations picked for one admission
	alt      Result    // the descending order's result in solve

	tables []powTable // by shape, reused across calls
	table  []int      // table[j]: request j's entry in tables
	calls  uint64     // resets so far; stamps the tables each call binds
}

// powTable caches math.Pow(float64(x), shape) for one shape, filled only
// at the x a run reads. An entry is 0 until then: every power read is of
// an x >= 1 with shape > 0, so it is at least 1.
type powTable struct {
	shape uint64 // math.Float64bits of the exponent
	call  uint64 // the last reset that bound a request to this table
	pow   []float64
}

// solve runs both admission orders and returns the better result, the
// ascending one on ties. A request the fresh pool cannot admit (see
// admissibleSameMin) is admitted in neither order, and its admit changes
// no state. When the others share one Min, both stable sorts take them in
// index order, so the descending run would repeat the ascending one bit
// for bit, and it runs once. Only the returned Result is allocated.
func (s *greedyScratch) solve(pool Pool, reqs []Request) *Result {
	best := emptyResult(pool, reqs)
	s.run(best, pool, reqs, true)
	if sameMin(reqs) || admissibleSameMin(pool, reqs) {
		return best
	}
	alt := &s.alt
	alt.X = resize(alt.X, len(reqs))
	alt.ConsumedByClass = resize(alt.ConsumedByClass, len(pool.Classes))
	alt.SlotsByClass = resize(alt.SlotsByClass, len(pool.Classes))
	alt.Utility = 0
	s.run(alt, pool, reqs, false)
	if alt.Utility > best.Utility {
		best.Utility = alt.Utility
		copy(best.X, alt.X)
		copy(best.ConsumedByClass, alt.ConsumedByClass)
		copy(best.SlotsByClass, alt.SlotsByClass)
	}
	return best
}

// run is one greedy pass with the given admission order, written into
// res, which must be zero and shaped for (pool, reqs).
func (s *greedyScratch) run(res *Result, pool Pool, reqs []Request, ascending bool) {
	L := pool.TotalLocations()
	if L == 0 || len(reqs) == 0 {
		return
	}
	s.reset(pool.Classes, L, reqs)
	s.order = s.order[:0]
	for j := range reqs {
		s.order = append(s.order, j)
	}
	slices.SortStableFunc(s.order, func(a, b int) int {
		if ascending {
			return cmp.Compare(reqs[a].Min, reqs[b].Min)
		}
		return cmp.Compare(reqs[b].Min, reqs[a].Min)
	})

	// Phase A: minima.
	for _, j := range s.order {
		s.admit(j, reqs[j], reqs[j].Min, L)
	}
	// Phase B: marginal top-up, one location at a time.
	s.topUp(reqs, L)

	for j := range reqs {
		if !s.admitted[j] {
			continue
		}
		r := &reqs[j]
		res.X[j] = s.x[j]
		res.Utility += s.utility(j, r, s.x[j])
		for w, b := range s.usedOf(j) {
			for ; b != 0; b &= b - 1 {
				c := s.class[w<<6|bits.TrailingZeros64(b)]
				res.SlotsByClass[c]++
				res.ConsumedByClass[c] += r.Resources
			}
		}
	}
}

// reset indexes the L locations of classes, all free, one group lookup
// per class, and binds every request of reqs to its shape's power table.
func (s *greedyScratch) reset(classes []Class, L int, reqs []Request) {
	k := len(reqs)
	s.idx.reset(L)
	s.class = resize(s.class, L)
	li := 0
	for c, cl := range classes {
		if cl.Count == 0 {
			continue
		}
		g := s.idx.group(0, cl.Capacity)
		members := s.idx.members(g)
		for end := li + cl.Count; li < end; li++ {
			members[li>>6] |= 1 << (li & 63)
			s.idx.slot[li] = g
			s.class[li] = c
		}
		s.idx.groups[g].n += cl.Count
	}
	s.used = resize(s.used, k*s.idx.words)
	s.x = resize(s.x, k)
	s.admitted = resize(s.admitted, k)
	s.gain = resize(s.gain, k)

	s.calls++
	s.table = resize(s.table, k)
	for j := range reqs {
		shape := math.Float64bits(reqs[j].Shape)
		if j > 0 && shape == math.Float64bits(reqs[j-1].Shape) {
			s.table[j] = s.table[j-1]
		} else {
			s.table[j] = s.tableOf(shape)
		}
	}
}

// tableOf returns the index of shape's power table, stamped as read by
// the current call. A new table takes a fresh slot while the scratch
// holds fewer than powTables, else the slot of the table unbound the
// longest, but never one the current call reads: when the current call
// reads them all, it takes a fresh slot.
func (s *greedyScratch) tableOf(shape uint64) int {
	victim := -1
	for i := range s.tables {
		t := &s.tables[i]
		if t.shape == shape {
			t.call = s.calls
			return i
		}
		if t.call != s.calls && (victim < 0 || t.call < s.tables[victim].call) {
			victim = i
		}
	}
	if victim < 0 || len(s.tables) < powTables {
		victim = len(s.tables)
		s.tables = append(s.tables, powTable{})
	}
	t := &s.tables[victim]
	t.shape, t.call, t.pow = shape, s.calls, t.pow[:0]
	return victim
}

// utility is reqs[j].Utility(x), with the power read from j's table.
func (s *greedyScratch) utility(j int, r *Request, x int) float64 {
	if x <= 0 || x < r.Min {
		return 0
	}
	t := &s.tables[s.table[j]]
	if x >= len(t.pow) {
		t.pow = append(t.pow, make([]float64, x+1-len(t.pow))...)
	}
	p := &t.pow[x]
	if *p == 0 {
		*p = math.Pow(float64(x), r.Shape)
	}
	return *p
}

// sameMin reports whether every request of reqs has the same Min.
func sameMin(reqs []Request) bool {
	for j := range reqs {
		if reqs[j].Min != reqs[0].Min {
			return false
		}
	}
	return true
}

// admissibleSameMin reports whether the requests a fresh pool can admit
// all have the same Min. A request whose Min is above its maximum, or
// above the number of pool locations with room for its Resources (fits'
// test on a fresh location), is never admitted: admission takes Min free
// locations with room, and capacities only fall.
func admissibleSameMin(pool Pool, reqs []Request) bool {
	L, common := pool.TotalLocations(), -1
	for j := range reqs {
		r := &reqs[j]
		if r.Min > r.maxLocations(L) {
			continue
		}
		room := 0
		for _, c := range pool.Classes {
			if c.Capacity+1e-12 >= r.Resources {
				room += c.Count
			}
		}
		if room < r.Min {
			continue
		}
		if common >= 0 && r.Min != common {
			return false
		}
		common = r.Min
	}
	return true
}

// usedOf returns request j's location bitset.
func (s *greedyScratch) usedOf(j int) []uint64 {
	w := s.idx.words
	return s.used[j*w : (j+1)*w]
}

// admit admits request j when its want most preferred locations not
// marked in its bitset all exist, and assigns them. A request whose
// minimum exceeds its maximum is never admitted.
func (s *greedyScratch) admit(j int, r Request, want, L int) {
	if r.Min > r.maxLocations(L) {
		return
	}
	used := s.usedOf(j)
	s.take = s.idx.best(s.take[:0], used, r.Resources, want)
	if len(s.take) < want {
		return
	}
	s.assign(used, r.Resources)
	s.admitted[j] = true
	s.x[j] = want
}

// assign gives the locations of s.take, picked in preference order, to
// the request holding used, need units each. The picks come group by
// group, so each group's run of them moves to its new group at once.
func (s *greedyScratch) assign(used []uint64, need float64) {
	for run := s.take; len(run) > 0; {
		g, n := s.idx.slot[run[0]], 1
		for n < len(run) && s.idx.slot[run[n]] == g {
			n++
		}
		s.idx.move(run[:n], need)
		run = run[n:]
	}
	for _, li := range s.take {
		used[li>>6] |= 1 << (li & 63)
	}
}

// topUp is the marginal phase: hand out one location at a time to the
// admitted request with the highest gain above 1e-12, lowest index on
// ties, while that request is below its maximum and a location it does
// not hold has room for it. The candidates sit in a heap in that order,
// so the request a scan over every request would pick is its top. A gain
// changes only when its own request grows, and only the top grows, so
// the heap is repaired from the top alone. A request leaves the heap for
// good when it reaches its maximum, when its gain falls to 1e-12 (it can
// no longer grow, so its gain stays there), or when it finds no
// location: capacities only fall and held sets only grow, so it never
// finds one later, and since the search is pure, skipping it selects the
// same request the scan would. A top that stays on top after its pick
// goes on picking in a run (see extend).
func (s *greedyScratch) topUp(reqs []Request, L int) {
	s.heap = s.heap[:0]
	for j := range reqs {
		r := &reqs[j]
		if !s.admitted[j] || s.x[j] >= r.maxLocations(L) {
			continue
		}
		if s.gain[j] = s.utility(j, r, s.x[j]+1) - s.utility(j, r, s.x[j]); s.gain[j] > 1e-12 {
			s.heap = append(s.heap, j)
		}
	}
	for i := len(s.heap)/2 - 1; i >= 0; i-- {
		s.down(i)
	}
	for len(s.heap) > 0 {
		best := s.heap[0]
		r := &reqs[best]
		used := s.usedOf(best)
		if li := s.idx.pickOne(used, r.Resources); li >= 0 {
			s.take = append(s.take[:0], li)
			s.idx.move(s.take, r.Resources)
			used[li>>6] |= 1 << (li & 63)
			if s.x[best]++; s.x[best] < r.maxLocations(L) {
				s.gain[best] = s.utility(best, r, s.x[best]+1) - s.utility(best, r, s.x[best])
				if s.gain[best] > 1e-12 {
					if s.down(0); s.heap[0] != best || s.extend(best, r, L) {
						continue
					}
				}
			}
		}
		n := len(s.heap) - 1
		s.heap[0] = s.heap[n]
		s.heap = s.heap[:n]
		s.down(0)
	}
}

// extend goes on picking for request j, the heap's top after a pick, for
// as long as the one-pick loop would keep picking for it: while j is below
// its maximum, its gain is above 1e-12, a location has room for it, and it
// comes before the runner-up, the better of the top's two children, whose
// gains the run leaves alone. A pick changes the key only of the location
// picked, which then leaves j's candidates, so the run's picks are j's
// candidates in preference order, taken from the index as the run found
// it and moved once it ends. It reports whether j stays in the heap,
// sifted to its place; if not, j is still the top.
func (s *greedyScratch) extend(j int, r *Request, L int) bool {
	next := -1
	if h := s.heap; len(h) > 1 {
		next = h[1]
		if len(h) > 2 && s.before(h[2], next) {
			next = h[2]
		}
	}
	x := &s.idx
	used, hi := s.usedOf(j), r.maxLocations(L)
	u := s.utility(j, r, s.x[j]+1) // j's utility once it holds one more
	s.take = s.take[:0]
	stay := false
run:
	for _, g := range x.order {
		if !x.fits(g, r.Resources) {
			continue
		}
		for w, b := range x.members(g) {
			for m := b &^ used[w]; m != 0; m &= m - 1 {
				s.take = append(s.take, w<<6|bits.TrailingZeros64(m))
				if s.x[j]++; s.x[j] >= hi {
					break run
				}
				prev := u
				u = s.utility(j, r, s.x[j]+1)
				if s.gain[j] = u - prev; !(s.gain[j] > 1e-12) {
					break run
				}
				if next >= 0 && !s.before(j, next) {
					stay = true
					break run
				}
			}
		}
	}
	s.assign(used, r.Resources)
	if stay {
		s.down(0)
	}
	return stay
}

// before orders the top-up heap: higher gain first, then lower index. It
// is a strict total order on requests, so the top is unique.
func (s *greedyScratch) before(a, b int) bool {
	return s.gain[a] > s.gain[b] || (s.gain[a] == s.gain[b] && a < b)
}

// down sifts the heap entry at position i toward the leaves.
func (s *greedyScratch) down(i int) {
	h := s.heap
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && s.before(h[c+1], h[c]) {
			c++
		}
		if !s.before(h[c], h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// locIndex orders a pool's locations by the greedy's preference: those
// held by the most requests first (they cannot serve those requests again,
// so consuming them harms nobody), then the highest remaining capacity
// (water-filling keeps scarce low-capacity locations free for longer),
// then the lowest index. Locations sharing a key (uses, remaining
// capacity) form one group, a bitset over location indices, and the
// groups are kept sorted by key. The keys take few distinct values, so a
// search walks a handful of groups and picks members a word at a time.
type locIndex struct {
	words  int   // bitset length: ⌈L/64⌉
	slot   []int // group slot of each location
	groups []locGroup
	order  []int    // live group slots, best key first
	free   []int    // empty group slots for reuse
	bits   []uint64 // member bitset of slot g: bits[g*words : (g+1)*words]
}

// locGroup is the set of locations sharing one key.
type locGroup struct {
	uses int     // requests holding each member
	rem  float64 // remaining capacity of each member
	n    int     // member count
}

// reset empties the index for L locations.
func (x *locIndex) reset(L int) {
	x.words = (L + 63) >> 6
	x.slot = resize(x.slot, L)
	x.groups = x.groups[:0]
	x.order = x.order[:0]
	x.free = x.free[:0]
	x.bits = x.bits[:0]
}

// members returns group slot g's member bitset.
func (x *locIndex) members(g int) []uint64 {
	return x.bits[g*x.words : (g+1)*x.words]
}

// move assigns the locations of run, all members of one group, to one
// more request needing need units each: together they move to the group
// of their new key. Their remaining capacity is their group's:
// capacities that compare equal are the same number, up to the sign of
// zero, which no subtraction of need can tell apart.
func (x *locIndex) move(run []int, need float64) {
	g := x.slot[run[0]]
	key := x.groups[g]
	from := x.members(g)
	for _, li := range run {
		from[li>>6] &^= 1 << (li & 63)
	}
	if x.groups[g].n -= len(run); x.groups[g].n == 0 {
		p := slices.Index(x.order, g)
		x.order = slices.Delete(x.order, p, p+1)
		x.free = append(x.free, g)
	}
	h := x.group(key.uses+1, key.rem-need)
	to := x.members(h)
	for _, li := range run {
		to[li>>6] |= 1 << (li & 63)
		x.slot[li] = h
	}
	x.groups[h].n += len(run)
}

// group returns the slot of the group of key (uses, rem), creating it
// empty if no location holds that key yet. Keys compare with the scan's
// own operators, so locations share a group exactly when the scan tied
// them.
func (x *locIndex) group(uses int, rem float64) int {
	lo, hi := 0, len(x.order)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if g := &x.groups[x.order[mid]]; g.uses > uses || (g.uses == uses && g.rem > rem) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(x.order) {
		if g := x.order[lo]; x.groups[g].uses == uses && x.groups[g].rem == rem {
			return g
		}
	}
	var g int
	if n := len(x.free); n > 0 {
		g, x.free = x.free[n-1], x.free[:n-1]
	} else {
		g = len(x.groups)
		x.groups = append(x.groups, locGroup{})
		x.bits = append(x.bits, make([]uint64, x.words)...)
	}
	x.groups[g] = locGroup{uses: uses, rem: rem}
	x.order = slices.Insert(x.order, lo, g)
	return g
}

// fits reports whether the members of group slot g have room for need
// units. No capacity is NaN, so no remaining capacity is.
func (x *locIndex) fits(g int, need float64) bool {
	return x.groups[g].rem+1e-12 >= need
}

// best appends to dst up to want locations with room for need units and
// not marked in used, most preferred first. Under the strict preference
// order the first want candidates are unique, so this is the sorted
// candidate list cut at want.
func (x *locIndex) best(dst []int, used []uint64, need float64, want int) []int {
	for _, g := range x.order {
		if len(dst) == want {
			break
		}
		if !x.fits(g, need) {
			continue
		}
		for w, b := range x.members(g) {
			for m := b &^ used[w]; m != 0 && len(dst) < want; m &= m - 1 {
				dst = append(dst, w<<6|bits.TrailingZeros64(m))
			}
			if len(dst) == want {
				break
			}
		}
	}
	return dst
}

// pickOne returns the most preferred location with room for need units
// not marked in used, or -1.
func (x *locIndex) pickOne(used []uint64, need float64) int {
	for _, g := range x.order {
		if !x.fits(g, need) {
			continue
		}
		for w, b := range x.members(g) {
			if m := b &^ used[w]; m != 0 {
				return w<<6 | bits.TrailingZeros64(m)
			}
		}
	}
	return -1
}

// resize returns s with length n and every element zero, reusing its
// backing array when large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}
