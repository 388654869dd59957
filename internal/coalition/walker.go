package coalition

// The prefix walker.
//
// The sampler (ApproxShapley) evaluates V along the growing prefixes of
// sampled permutations and consumes the per-step deltas
// V(prefix_k) − V(prefix_{k−1}). When the game can hand out an incremental
// PrefixValuer, each step updates the previous prefix's solved state
// (O(Δ) on the allocation fast path) instead of re-solving; otherwise the
// walker evaluates every prefix through ValueMembers.
//
// Determinism: the incremental path is required to return bit-identical
// values to ValueMembers (see allocation.PrefixSolver), and the walker
// visits players in the same order on both paths, so fixed-seed results do
// not depend on which path a game offers — on top of the worker-count
// invariance.

// PrefixValuer incrementally evaluates V along a growing coalition. It is
// stateful and single-goroutine; each sampling worker obtains its own.
// Extend must return exactly ValueMembers of the players extended so far
// (bit-identical, so sampling output is independent of whether the
// incremental path is used).
type PrefixValuer interface {
	// Reset empties the coalition, starting a new walk. The sampler also
	// calls it once when a worker finishes, so a valuer that batches
	// counters (allocation.PrefixSolver does) publishes its last walk's.
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

// prefixWalker walks permutation prefixes for one sampling worker. A nil
// valuer means the generic ValueMembers path.
type prefixWalker struct {
	g  MemberGame
	pv PrefixValuer
}

// newPrefixWalker builds a walker for g, acquiring an incremental valuer
// when g supports one.
func newPrefixWalker(g MemberGame) *prefixWalker {
	w := &prefixWalker{g: g}
	if pg, ok := g.(PrefixGame); ok {
		w.pv = pg.PrefixValuer()
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

// walk evaluates V along the growing prefixes of perm — of reverse(perm)
// when rev is set, walked through the same buffer from the tail: prefix k
// of the reversal is the suffix perm[n−k:]. For each step it calls
// visit(player, delta) with the player completing the prefix and its
// marginal contribution V(prefix) − V(previous prefix).
func (w *prefixWalker) walk(perm []int, rev bool, visit func(player int, delta float64)) {
	n := len(perm)
	prev := 0.0
	if w.pv != nil {
		w.pv.Reset()
		for k := 1; k <= n; k++ {
			p := perm[k-1]
			if rev {
				p = perm[n-k]
			}
			v := w.pv.Extend(p)
			visit(p, v-prev)
			prev = v
		}
		return
	}
	if !rev {
		for k := 1; k <= n; k++ {
			v := w.g.ValueMembers(perm[:k])
			visit(perm[k-1], v-prev)
			prev = v
		}
		return
	}
	for k := 1; k <= n; k++ {
		v := w.g.ValueMembers(perm[n-k:])
		visit(perm[n-k], v-prev)
		prev = v
	}
}
