package figures

import (
	"runtime"
	"testing"
)

// TestFiguresByteIdenticalAcrossWorkers is the pipeline's end-to-end
// determinism check: every figure's rendered table must be byte-identical
// whether the sweeps run sequentially or on a multi-worker pool (the pools
// are GOMAXPROCS wide).
func TestFiguresByteIdenticalAcrossWorkers(t *testing.T) {
	render := func() map[string]string {
		out := map[string]string{}
		for _, id := range paperFigureIDs() {
			out[id] = mustFig(t, id).Table()
		}
		return out
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	baseline := render()

	runtime.GOMAXPROCS(4)
	got := render()
	for id, want := range baseline {
		if got[id] != want {
			t.Fatalf("figure %s diverged between workers=1 and workers=4", id)
		}
	}
}
