package coalition

// The prefix walker.
//
// The sampler (approxShapley) evaluates V along the growing prefixes of
// sampled permutations and takes the per-step deltas
// V(prefix_k) − V(prefix_{k−1}) as marginals. The walker hands it the
// prefix-value vector of a whole walk, from the cheapest source the game
// offers: a valuer's batch method (walkValuer), which values the walk in
// one call; otherwise a PrefixValuer's Extend per step, each updating
// the previous prefix's solved state (O(Δ) on the allocation fast path)
// instead of re-solving; otherwise ValueMembers of every prefix.
//
// Determinism: the batch and incremental paths are required to return
// values bit-identical to ValueMembers (see allocation.PrefixSolver), and
// every path visits players in the same order, so fixed-seed results do
// not depend on which path a game offers — on top of the worker-count
// invariance.

import "slices"

// PrefixValuer incrementally evaluates V along a growing coalition. It is
// stateful and single-goroutine; each sampling worker obtains its own.
// Extend must return exactly ValueMembers of the players extended so far
// (bit-identical, so sampling output is independent of whether the
// incremental path is used).
type PrefixValuer interface {
	// Reset empties the coalition, starting a new walk. The sampler also
	// calls it once a sampling round's pool has returned, so a valuer that
	// batches counters (allocation.PrefixSolver does) publishes its last
	// walk's.
	Reset()
	// Extend adds one player and returns V of the extended coalition.
	Extend(player int) float64
}

// PrefixGame is a MemberGame that can hand out incremental prefix
// evaluators. PrefixValuer may return nil when the game instance does not
// support incremental evaluation (e.g. overlap models); callers fall back
// to ValueMembers.
type PrefixGame interface {
	MemberGame
	PrefixValuer() PrefixValuer
}

// walkValuer is a PrefixValuer that can also value a whole walk in one
// call. The walker prefers it; wrappers that forward only Reset and
// Extend (a timing wrapper, say) hide it and get the per-step loop.
type walkValuer interface {
	PrefixValuer
	// Walk starts a new walk and sets vals[k] to V of the first k+1
	// players of perm: exactly what Reset and one Extend per player would
	// return.
	Walk(perm []int, vals []float64)
}

// prefixWalker walks permutation prefixes for one sampling worker. A nil
// valuer means the generic ValueMembers path.
type prefixWalker struct {
	g     MemberGame
	pv    PrefixValuer
	wv    walkValuer // pv's batch method, when it has one
	rperm []int      // the reversed permutation a valuer walks
}

// newPrefixWalker builds a walker for g, acquiring an incremental valuer
// when g supports one.
func newPrefixWalker(g MemberGame) *prefixWalker {
	w := &prefixWalker{g: g}
	if pg, ok := g.(PrefixGame); ok {
		w.pv = pg.PrefixValuer()
		w.wv, _ = w.pv.(walkValuer)
	}
	return w
}

// finish ends the worker's walks: it resets the valuer, publishing any
// counters it batched since its last walk began.
func (w *prefixWalker) finish() {
	if w.pv != nil {
		w.pv.Reset()
	}
}

// values sets vals[k] to V of the first k+1 players of perm — of
// reverse(perm) when rev is set. A valuer walks a reversed copy; the
// generic path reads the reversal's prefixes from the tail of perm:
// prefix k+1 of the reversal is the suffix perm[n−k−1:].
func (w *prefixWalker) values(perm []int, rev bool, vals []float64) {
	n := len(perm)
	if w.pv == nil {
		for k := range perm {
			if rev {
				vals[k] = w.g.ValueMembers(perm[n-1-k:])
			} else {
				vals[k] = w.g.ValueMembers(perm[:k+1])
			}
		}
		return
	}
	if rev {
		w.rperm = append(w.rperm[:0], perm...)
		slices.Reverse(w.rperm)
		perm = w.rperm
	}
	if w.wv != nil {
		w.wv.Walk(perm, vals)
		return
	}
	w.pv.Reset()
	for k, p := range perm {
		vals[k] = w.pv.Extend(p)
	}
}
