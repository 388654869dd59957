package coalition

import (
	"fmt"
	"sync"

	"fedshare/internal/combin"
)

// Snapshot materializes every coalition value of g into an immutable Table,
// which is safe for concurrent reads. Cost is 2^n evaluations; limited to
// 24 players.
//
// With workers ≤ 1 the coalitions are evaluated sequentially. Otherwise the
// 2^n coalition range is sharded across up to workers goroutines (fewer for
// small games: below ~2^6 coalitions per worker the spawn cost outweighs
// the evaluations), each filling a disjoint contiguous block of the table,
// so expensive characteristic functions (e.g. one LP or simulation solve
// per coalition) evaluate concurrently. g must then be safe for concurrent
// Value calls.
func Snapshot(g Game, workers int) (*Table, error) {
	n := g.N()
	if n > snapshotMaxPlayers {
		return nil, fmt.Errorf("coalition: Snapshot limited to %d players, got %d", snapshotMaxPlayers, n)
	}
	size := uint64(1) << uint(n)
	values := make([]float64, size)
	if workers = min(workers, int(size>>6)); workers <= 1 {
		combin.AllCoalitions(n, func(s combin.Set) bool {
			values[s] = g.Value(s)
			return true
		})
		return NewTable(n, values)
	}
	chunk := (size + uint64(workers) - 1) / uint64(workers)
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		lo := uint64(k) * chunk
		hi := min(lo+chunk, size)
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi uint64) {
			defer wg.Done()
			for m := lo; m < hi; m++ {
				values[m] = g.Value(combin.Set(m))
			}
		}(lo, hi)
	}
	wg.Wait()
	return NewTable(n, values)
}
