package figures

import (
	"runtime"
	"testing"

	"fedshare/internal/allocation"
)

// TestFiguresByteIdenticalAcrossWorkers is the pipeline's end-to-end
// determinism check: every figure's rendered table must be byte-identical
// whether the sweeps run sequentially or on a multi-worker pool (the pools
// are GOMAXPROCS wide), and whether the allocation memo is serving hits or
// disabled entirely.
func TestFiguresByteIdenticalAcrossWorkers(t *testing.T) {
	render := func() map[string]string {
		out := map[string]string{}
		for _, id := range paperFigureIDs() {
			out[id] = mustFig(t, id).Table()
		}
		return out
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	allocation.DefaultMemo.Reset()
	baseline := render()

	for _, workers := range []int{1, 4} {
		runtime.GOMAXPROCS(workers)
		// First pass repopulates the memo, second pass is served from it.
		for pass := 0; pass < 2; pass++ {
			if pass == 0 {
				allocation.DefaultMemo.Reset()
			}
			got := render()
			for id, want := range baseline {
				if got[id] != want {
					t.Fatalf("figure %s diverged with workers=%d pass=%d", id, workers, pass)
				}
			}
		}
	}

	wasEnabled := allocation.DefaultMemo.SetEnabled(false)
	defer allocation.DefaultMemo.SetEnabled(wasEnabled)
	got := render()
	for id, want := range baseline {
		if got[id] != want {
			t.Fatalf("figure %s diverged with memo disabled", id)
		}
	}
}
