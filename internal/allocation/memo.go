package allocation

import (
	"cmp"
	"encoding/binary"
	"hash/maphash"
	"math"
	"slices"
	"sync"
	"sync/atomic"
)

// Aggregate-keyed allocation memoization.
//
// In the no-overlap federation model, V(S) depends only on the multiset of
// (Count, Capacity) pool classes plus the request list — not on which
// facilities contributed the classes. A process-wide striped memo table
// keyed by that canonical signature therefore collapses symmetric
// coalitions (equal-contribution facilities) and — the dominant win in the
// figure sweeps — repeated (pool, demand) pairs across sweep points and
// repeated figure runs to a single solve.
//
// Results are stored with class-indexed fields in canonical (sorted) class
// order and remapped to the caller's class order on each hit, so lookups
// from any permutation of the same class multiset share one entry. Cached
// Results are treated as immutable: hits share the stored Result outright
// when the caller's class order is already canonical (the common case) and
// otherwise share the request-indexed X slice under fresh class-indexed
// slices; callers must not mutate Results obtained from the memo.

// memoStripes is the number of lock stripes; must be a power of two.
const memoStripes = 64

// memoMaxEntries bounds the process-wide table; beyond it, misses still
// solve but are no longer inserted (the figure workloads stay far below).
const memoMaxEntries = 1 << 18

// MemoStats is a snapshot of a memo table's counters.
type MemoStats struct {
	Hits    int64
	Misses  int64
	Entries int64
}

// HitRate returns the fraction of lookups served from the table.
func (s MemoStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Memo is a concurrency-safe striped memoization table over Solve.
type Memo struct {
	disabled atomic.Bool
	hits     atomic.Int64
	misses   atomic.Int64
	entries  atomic.Int64
	mus      [memoStripes]sync.Mutex
	tables   [memoStripes]map[string]*Result
}

// NewMemo returns an empty, enabled memo table.
func NewMemo() *Memo {
	m := &Memo{}
	for i := range m.tables {
		m.tables[i] = map[string]*Result{}
	}
	return m
}

// DefaultMemo is the process-wide table behind SolveCached.
var DefaultMemo = NewMemo()

// SolveCached is Solve with aggregate-keyed memoization through DefaultMemo.
// The returned Result must be treated as read-only.
func SolveCached(pool Pool, reqs []Request) *Result {
	return DefaultMemo.Solve(pool, reqs)
}

// SetEnabled turns the table on or off (off: every call solves directly).
// It reports the previous state.
func (m *Memo) SetEnabled(on bool) bool {
	return !m.disabled.Swap(!on)
}

// Stats snapshots the hit/miss/entry counters.
func (m *Memo) Stats() MemoStats {
	return MemoStats{
		Hits:    m.hits.Load(),
		Misses:  m.misses.Load(),
		Entries: m.entries.Load(),
	}
}

// Reset drops all entries and zeroes the counters.
func (m *Memo) Reset() {
	for i := range m.tables {
		m.mus[i].Lock()
		m.tables[i] = map[string]*Result{}
		m.mus[i].Unlock()
	}
	m.hits.Store(0)
	m.misses.Store(0)
	m.entries.Store(0)
}

// memoScratch holds the per-lookup key buffer and class permutation; pooled
// so warm hits allocate nothing.
type memoScratch struct {
	buf  []byte
	perm []int
}

var memoScratchPool = sync.Pool{New: func() any { return &memoScratch{} }}

// Solve returns Solve(pool, reqs), serving repeats of the same canonical
// (class multiset, request list) from the table. The Result is shared with
// the table and must be treated as read-only.
func (m *Memo) Solve(pool Pool, reqs []Request) *Result {
	if m.disabled.Load() {
		return Solve(pool, reqs)
	}
	s := memoScratchPool.Get().(*memoScratch)
	identity := memoKey(s, pool, reqs)
	stripe := memoStripe(s.buf)
	m.mus[stripe].Lock()
	defer func() {
		m.mus[stripe].Unlock()
		memoScratchPool.Put(s)
	}()
	// string(s.buf) in the index expression is a non-allocating lookup.
	if canon, ok := m.tables[stripe][string(s.buf)]; ok {
		m.hits.Add(1)
		if identity {
			return canon
		}
		return remapResult(canon, s.perm)
	}
	// Compute while holding the stripe lock so
	// concurrent sweep workers never duplicate an expensive solve; only
	// same-stripe keys serialize behind it.
	res := Solve(pool, reqs)
	if m.entries.Load() < memoMaxEntries {
		m.tables[stripe][string(s.buf)] = canonicalResult(res, s.perm, identity)
		m.entries.Add(1)
	}
	m.misses.Add(1)
	return res
}

// memoSeed fixes the per-process stripe hash (striping need not be stable
// across runs, only well spread within one).
var memoSeed = maphash.MakeSeed()

// memoStripe hashes a key onto a lock stripe using the runtime's hardware-
// accelerated byte hash.
func memoStripe(key []byte) int {
	return int(maphash.Bytes(memoSeed, key) & (memoStripes - 1))
}

// memoKey fills s with the canonical pool-signature key — classes sorted by
// (Capacity, Count), labels ignored — followed by the request list encoded
// in order with run-length compression (batch workloads are long runs of
// one experiment type). s.perm[k] is the original index of the k-th
// canonical class, for remapping class-indexed result fields; the return
// value reports whether that permutation is the identity (the common case
// for pools built in a stable class order).
func memoKey(s *memoScratch, pool Pool, reqs []Request) bool {
	nc := len(pool.Classes)
	if cap(s.perm) < nc {
		s.perm = make([]int, nc)
	}
	s.perm = s.perm[:nc]
	perm := s.perm
	for i := range perm {
		perm[i] = i
	}
	// A stable sort leaves equal classes in caller order, which the identity
	// flag and the stored class order rely on; pools of thousands of
	// facilities (member-list V(N)) sort in O(n log n).
	slices.SortStableFunc(perm, func(a, b int) int {
		ca, cb := &pool.Classes[a], &pool.Classes[b]
		if c := cmp.Compare(ca.Capacity, cb.Capacity); c != 0 {
			return c
		}
		return cmp.Compare(ca.Count, cb.Count)
	})
	identity := true
	for k, i := range perm {
		if k != i {
			identity = false
			break
		}
	}
	buf := s.buf[:0]
	buf = binary.AppendVarint(buf, int64(nc))
	for _, i := range perm {
		cl := pool.Classes[i]
		buf = binary.AppendVarint(buf, int64(cl.Count))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(cl.Capacity))
	}
	buf = binary.AppendVarint(buf, int64(len(reqs)))
	for j := 0; j < len(reqs); {
		run := j + 1
		for run < len(reqs) && sameRequest(reqs[run], reqs[j]) {
			run++
		}
		buf = binary.AppendVarint(buf, int64(run-j))
		buf = binary.AppendVarint(buf, int64(reqs[j].Min))
		buf = binary.AppendVarint(buf, int64(reqs[j].Max))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(reqs[j].Shape))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(reqs[j].Resources))
		j = run
	}
	s.buf = buf
	return identity
}

// sameRequest compares the solver-relevant request fields (labels ignored).
func sameRequest(a, b Request) bool {
	return a.Min == b.Min && a.Max == b.Max && a.Shape == b.Shape && a.Resources == b.Resources
}

// canonicalResult reorders res's class-indexed fields into canonical class
// order for storage (perm[k] = original index of canonical class k). With an
// identity permutation the result is stored as-is.
func canonicalResult(res *Result, perm []int, identity bool) *Result {
	if identity {
		return res
	}
	out := &Result{
		X:               res.X,
		Utility:         res.Utility,
		ConsumedByClass: make([]float64, len(res.ConsumedByClass)),
		SlotsByClass:    make([]int, len(res.SlotsByClass)),
	}
	for k, orig := range perm {
		out.ConsumedByClass[k] = res.ConsumedByClass[orig]
		out.SlotsByClass[k] = res.SlotsByClass[orig]
	}
	return out
}

// remapResult reorders a canonical-order stored Result into the caller's
// class order. The X slice is shared (request order is part of the key).
func remapResult(canon *Result, perm []int) *Result {
	out := &Result{
		X:               canon.X,
		Utility:         canon.Utility,
		ConsumedByClass: make([]float64, len(canon.ConsumedByClass)),
		SlotsByClass:    make([]int, len(canon.SlotsByClass)),
	}
	for k, orig := range perm {
		out.ConsumedByClass[orig] = canon.ConsumedByClass[k]
		out.SlotsByClass[orig] = canon.SlotsByClass[k]
	}
	return out
}
