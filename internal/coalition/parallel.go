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
	var failed workerPanic
	for k := 0; k < workers; k++ {
		lo := uint64(k) * chunk
		hi := min(lo+chunk, size)
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi uint64) {
			defer wg.Done()
			defer failed.catch()
			for m := lo; m < hi; m++ {
				values[m] = g.Value(combin.Set(m))
			}
		}(lo, hi)
	}
	wg.Wait()
	failed.rethrow()
	return NewTable(n, values)
}

// workerPanic keeps the first panic of a pool's worker goroutines, so
// that the pool's caller re-raises it on its own goroutine once every
// worker has finished. A panic left on a worker ends the process, out of
// reach of any recover the caller set up, such as the scenario engine's,
// which turns a run's panic into a failed run.
type workerPanic struct {
	mu sync.Mutex
	v  any
}

// catch recovers a worker's panic and keeps it unless one is kept
// already. Workers defer it.
func (p *workerPanic) catch() {
	if r := recover(); r != nil {
		p.mu.Lock()
		if p.v == nil {
			p.v = r
		}
		p.mu.Unlock()
	}
}

// rethrow re-raises the kept panic, if any. Call it after the workers
// have finished.
func (p *workerPanic) rethrow() {
	if p.v != nil {
		panic(p.v)
	}
}
