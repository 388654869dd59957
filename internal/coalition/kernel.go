package coalition

import (
	"math"
	"math/bits"
	"time"

	"fedshare/internal/combin"
	"fedshare/internal/sweep"
)

// snapshotMaxPlayers bounds the games whose characteristic function can be
// materialized into a dense Table (8 bytes per coalition: 24 players is a
// 128 MiB table).
const snapshotMaxPlayers = 24

// Batched is the result of one coalition-lattice sweep: the exact Shapley
// and Banzhaf values of every player, computed together from a single pass
// over the 2^n coalition values.
type Batched struct {
	Shapley []float64
	Banzhaf []float64
}

// BatchedValues computes the exact Shapley and Banzhaf values of every
// player in one sweep over the coalition lattice of a Table game.
//
// Instead of the classic n independent subset enumerations (one per
// player, each walking 2^(n-1) coalitions), the kernel scans the dense
// value table linearly once: for every coalition T
// and every member i ∈ T it accumulates the marginal contribution
// V(T) − V(T\{i}) into per-player Shapley and Banzhaf accumulators. The
// total work is the same Θ(n·2^n) additions, but all reads are direct
// []float64 indexing — no interface dispatch, no per-player re-walk of the
// lattice, and the V(T) operand streams through the cache.
//
// With workers ≤ 1 the sweep is sequential. Otherwise the coalition range
// is split into up to workers contiguous chunks (fewer for small tables:
// below ~2^12 coalitions per chunk the spawn cost dominates the sweep),
// run on sweep.Each's pool. Each chunk sweeps its block of the lattice
// into private per-player accumulators, which are reduced in chunk order
// afterwards — so the result is deterministic for a fixed worker count,
// and the worker count scales with the 2^n coalition range rather than
// being capped at n players.
func BatchedValues(t *Table, workers int) Batched {
	n := t.Players
	res := Batched{Shapley: make([]float64, n), Banzhaf: make([]float64, n)}
	if n == 0 {
		return res
	}
	size := uint64(len(t.Values))
	workers = min(workers, int(size>>12))
	batchesTotal.Inc()
	if len(t.Values) >= batchTimingMinCoalitions {
		start := time.Now()
		defer func() { batchSeconds.ObserveDuration(time.Since(start)) }()
	}
	w := shapleyWeights(n)
	if workers <= 1 {
		sweepRange(t.Values, w, 1, size, res.Shapley, res.Banzhaf)
		scaleBanzhaf(res.Banzhaf, n)
		return res
	}
	partials := make([]Batched, workers)
	chunk := (size + uint64(workers) - 1) / uint64(workers)
	sweep.Each(workers, workers, func(_, k int) {
		lo := uint64(k) * chunk
		p := Batched{Shapley: make([]float64, n), Banzhaf: make([]float64, n)}
		sweepRange(t.Values, w, lo, min(lo+chunk, size), p.Shapley, p.Banzhaf)
		partials[k] = p
	})
	for _, p := range partials {
		for i := 0; i < n; i++ {
			res.Shapley[i] += p.Shapley[i]
			res.Banzhaf[i] += p.Banzhaf[i]
		}
	}
	scaleBanzhaf(res.Banzhaf, n)
	return res
}

// sweepRange walks coalitions T in [lo, hi) and, for every member i of T,
// adds the marginal contribution V(T) − V(T\{i}) into banz[i] and its
// Shapley-weighted form into shap[i]. Summed over the full lattice this is
// exactly φ_i = Σ_{S ⊆ N\{i}} w[|S|]·(V(S∪{i}) − V(S)) with T = S∪{i}.
func sweepRange(values, w []float64, lo, hi uint64, shap, banz []float64) {
	if lo == 0 {
		lo = 1 // the empty coalition has no members
	}
	for m := lo; m < hi; m++ {
		vT := values[m]
		wt := w[bits.OnesCount64(m)-1]
		for rest := m; rest != 0; rest &= rest - 1 {
			i := bits.TrailingZeros64(rest)
			marg := vT - values[m&^(1<<uint(i))]
			shap[i] += wt * marg
			banz[i] += marg
		}
	}
}

// scaleBanzhaf applies the 2^{-(n-1)} normalization of the Banzhaf value.
func scaleBanzhaf(banz []float64, n int) {
	norm := math.Exp2(-float64(n - 1))
	for i := range banz {
		banz[i] *= norm
	}
}

// shapleyWeights returns w[s] = s!·(n−s−1)!/n! for s = 0..n−1 — the
// probability that a uniformly random ordering places a given player
// immediately after a particular s-subset of the others — using the closed
// binomial form 1/(n·C(n−1,s)).
func shapleyWeights(n int) []float64 {
	w := make([]float64, n)
	for s := 0; s < n; s++ {
		w[s] = 1 / (float64(n) * combin.Binomial(n-1, s))
	}
	return w
}

// tabled is implemented by games that keep their own dense value table
// (core.Model.Table), which the kernel sweeps.
type tabled interface {
	Table() (*Table, error)
}

// denseTable returns the value table the kernel sweeps: the game's own.
// ok is false when there is none to be had: the game keeps no table, or
// its Table fails (too many players, or V(∅) ≠ 0).
func denseTable(g MemberGame) (t *Table, ok bool) {
	tg, ok := g.(tabled)
	if !ok {
		return nil, false
	}
	t, err := tg.Table()
	return t, err == nil
}
