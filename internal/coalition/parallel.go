package coalition

import (
	"fmt"

	"fedshare/internal/combin"
	"fedshare/internal/sweep"
)

// Snapshot materializes the characteristic function v of an n-player game
// into an immutable Table, which is safe for concurrent reads. Cost is 2^n
// evaluations; limited to 24 players.
//
// With workers ≤ 1 the coalitions are evaluated sequentially. Otherwise the
// 2^n coalition range is split into up to workers contiguous chunks (fewer
// for small games: below ~2^6 coalitions per chunk the spawn cost outweighs
// the evaluations), each filling a disjoint block of the table on
// sweep.Each's pool, so expensive characteristic functions (e.g. one LP or
// simulation solve per coalition) evaluate concurrently. v must then be
// safe for concurrent calls.
func Snapshot(n int, v func(combin.Set) float64, workers int) (*Table, error) {
	if n > snapshotMaxPlayers {
		return nil, fmt.Errorf("coalition: Snapshot limited to %d players, got %d", snapshotMaxPlayers, n)
	}
	size := uint64(1) << uint(n)
	values := make([]float64, size)
	if workers = min(workers, int(size>>6)); workers <= 1 {
		fillValues(v, values, 0, size)
		return NewTable(n, values)
	}
	chunk := (size + uint64(workers) - 1) / uint64(workers)
	sweep.Each(workers, workers, func(_, k int) {
		lo := uint64(k) * chunk
		fillValues(v, values, lo, min(lo+chunk, size))
	})
	return NewTable(n, values)
}

// fillValues sets values[m] to V(m) for every coalition m in [lo, hi).
func fillValues(v func(combin.Set) float64, values []float64, lo, hi uint64) {
	for m := lo; m < hi; m++ {
		values[m] = v(combin.Set(m))
	}
}
