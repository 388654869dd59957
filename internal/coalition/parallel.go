package coalition

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sync"

	"fedshare/internal/combin"
)

// Snapshot materializes every coalition value of g into an immutable Table,
// which is safe for concurrent reads. Cost is 2^n evaluations; limited to
// 24 players.
func Snapshot(g Game) (*Table, error) {
	n := g.N()
	if n > snapshotMaxPlayers {
		return nil, fmt.Errorf("coalition: Snapshot limited to %d players, got %d", snapshotMaxPlayers, n)
	}
	values := make([]float64, 1<<uint(n))
	combin.AllCoalitions(n, func(s combin.Set) bool {
		values[s] = g.Value(s)
		return true
	})
	return NewTable(n, values)
}

// SnapshotParallel materializes g into a Table with the 2^n coalition range
// sharded across workers (0 means GOMAXPROCS). The game must be safe for
// concurrent Value calls; use Snapshot when it is not. Each worker
// fills a disjoint contiguous block of the value table, so expensive
// characteristic functions (e.g. one LP/simulation solve per coalition)
// evaluate concurrently. Limited to 24 players.
func SnapshotParallel(g Game, workers int) (*Table, error) {
	n := g.N()
	if n > snapshotMaxPlayers {
		return nil, fmt.Errorf("coalition: SnapshotParallel limited to %d players, got %d", snapshotMaxPlayers, n)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	size := uint64(1) << uint(n)
	// Below ~2^6 coalitions per worker the spawn cost outweighs the
	// evaluations, so small games snapshot sequentially.
	if maxW := int(size >> 6); workers > maxW {
		workers = max(1, maxW)
	}
	if workers <= 1 {
		return Snapshot(g)
	}
	values := make([]float64, size)
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

// tableJSON is the serialized form of a Table game.
type tableJSON struct {
	Players int       `json:"players"`
	Values  []float64 `json:"values"`
}

// MarshalJSON implements json.Marshaler, so computed games can be archived
// and shared among federation operators (the paper's off-line φ̂ workflow).
func (t *Table) MarshalJSON() ([]byte, error) {
	return json.Marshal(tableJSON{Players: t.Players, Values: t.Values})
}

// UnmarshalJSON implements json.Unmarshaler with full validation.
func (t *Table) UnmarshalJSON(data []byte) error {
	var raw tableJSON
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	nt, err := NewTable(raw.Players, raw.Values)
	if err != nil {
		return err
	}
	*t = *nt
	return nil
}
