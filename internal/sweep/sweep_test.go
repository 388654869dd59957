package sweep

import (
	"bytes"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// withProcs sets GOMAXPROCS, the width of Run's pool, for the rest of the
// test.
func withProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// goid returns the calling goroutine's ID, read from its stack header.
func goid() string {
	buf := make([]byte, 64)
	return string(bytes.Fields(buf[:runtime.Stack(buf, false)])[1])
}

// TestEachRunsEveryIndexOnce counts calls per index across pool widths
// below, at and above n, and the GOMAXPROCS default.
func TestEachRunsEveryIndexOnce(t *testing.T) {
	withProcs(t, 4)
	for _, tc := range []struct{ n, workers int }{
		{200, 16}, {200, 0}, {200, -5}, {5, 64}, {7, 1}, {1, 4}, {0, 4},
	} {
		counts := make([]atomic.Int64, tc.n)
		Each(tc.n, tc.workers, func(_, i int) { counts[i].Add(1) })
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("n=%d workers=%d: index %d ran %d times", tc.n, tc.workers, i, c)
			}
		}
	}
}

// TestEachSlotsAreExclusive checks that every slot is in
// [0, min(workers, n)) and that no two calls with the same slot overlap,
// which is what lets callers keep scratch per slot.
func TestEachSlotsAreExclusive(t *testing.T) {
	withProcs(t, 4)
	for _, tc := range []struct{ n, workers int }{{400, 8}, {3, 8}, {50, 0}} {
		slots := min(tc.workers, tc.n)
		if tc.workers <= 0 {
			slots = min(runtime.GOMAXPROCS(0), tc.n)
		}
		busy := make([]atomic.Int32, slots)
		var outOfRange, overlaps atomic.Int32
		Each(tc.n, tc.workers, func(w, i int) {
			if w < 0 || w >= slots {
				outOfRange.Add(1)
				return
			}
			if busy[w].Add(1) != 1 {
				overlaps.Add(1)
			}
			time.Sleep(20 * time.Microsecond)
			busy[w].Add(-1)
		})
		if outOfRange.Load() != 0 || overlaps.Load() != 0 {
			t.Fatalf("n=%d workers=%d: %d calls outside [0, %d), %d overlapping calls on one slot",
				tc.n, tc.workers, outOfRange.Load(), slots, overlaps.Load())
		}
	}
}

// TestEachRunsInlineWithOneSlot checks that a pool of one slot — one
// worker, the GOMAXPROCS default at GOMAXPROCS 1, or a single item — runs
// every call on the caller's goroutine, in index order.
func TestEachRunsInlineWithOneSlot(t *testing.T) {
	caller := goid()
	check := func(name string, n, workers int) {
		t.Helper()
		var order []int
		Each(n, workers, func(w, i int) {
			if w != 0 || goid() != caller {
				t.Errorf("%s: index %d ran on slot %d of goroutine %s, want slot 0 of the caller %s", name, i, w, goid(), caller)
			}
			order = append(order, i)
		})
		for i, got := range order {
			if got != i {
				t.Fatalf("%s: call %d ran index %d", name, i, got)
			}
		}
		if len(order) != n {
			t.Fatalf("%s: %d calls, want %d", name, len(order), n)
		}
	}
	withProcs(t, 4)
	check("workers=1", 5, 1)
	check("n=1", 1, 8)
	check("n=1 default", 1, 0)
	runtime.GOMAXPROCS(1)
	check("default at GOMAXPROCS 1", 5, 0)
}

// TestEachPanicWaitsForStartedItems checks that a panic reaches the
// caller only once every other item that had started has finished, and
// that the pool takes no new item after it.
func TestEachPanicWaitsForStartedItems(t *testing.T) {
	const n = 1000
	var started, finished atomic.Int64
	var atRecover struct{ started, finished int64 }
	func() {
		defer func() {
			if r := recover(); r != "item 5" {
				t.Fatalf("recovered %v, want the item's panic", r)
			}
			atRecover.started, atRecover.finished = started.Load(), finished.Load()
		}()
		Each(n, 4, func(_, i int) {
			started.Add(1)
			if i == 5 {
				panic("item 5")
			}
			time.Sleep(time.Millisecond)
			finished.Add(1)
		})
	}()
	if atRecover.finished != atRecover.started-1 {
		t.Fatalf("panic reached the caller with %d items started and %d finished, want all but the panicking one finished",
			atRecover.started, atRecover.finished)
	}
	if atRecover.started >= n/2 {
		t.Fatalf("%d of %d items started: the pool kept taking items after the panic", atRecover.started, n)
	}
}

// TestRunOrderDeterministic checks that results land at their point index
// regardless of completion order (late points finish first here), and that
// an empty sweep returns nil.
func TestRunOrderDeterministic(t *testing.T) {
	withProcs(t, 8)
	n := 50
	out := Run(n, func(i int) int {
		time.Sleep(time.Duration(n-i) * 100 * time.Microsecond)
		return i * i
	})
	if len(out) != n {
		t.Fatalf("got %d results, want %d", len(out), n)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
	if out := Run(0, func(i int) int { return i }); out != nil {
		t.Fatalf("n=0 should return nil, got %v", out)
	}
}

// TestRunPanicPropagates checks a point panic re-raises in the caller, as a
// sequential loop would, and that the queue-depth gauge settles back and
// only completed points are counted.
func TestRunPanicPropagates(t *testing.T) {
	withProcs(t, 4)
	depth0, points0 := queueDepth.Value(), pointsTotal.Value()
	var completed atomic.Int64
	func() {
		defer func() {
			if r := recover(); r == nil {
				t.Fatal("panic did not propagate")
			}
		}()
		Run(20, func(i int) int {
			if i == 7 {
				panic("point failure")
			}
			completed.Add(1)
			return i
		})
	}()
	if d := queueDepth.Value(); d != depth0 {
		t.Fatalf("queue depth %g after the panic, want %g", d, depth0)
	}
	if got, want := pointsTotal.Value()-points0, completed.Load(); got != want {
		t.Fatalf("%d points counted, want the %d that completed", got, want)
	}
}

// TestRunErrReturnsLowestIndexedError matches the sequential-loop contract:
// the error surfaced is the one the lowest-indexed failing point produced.
func TestRunErrReturnsLowestIndexedError(t *testing.T) {
	withProcs(t, 8)
	fail := func(i int) error {
		if i == 3 || i == 11 {
			return &testError{i}
		}
		return nil
	}
	_, e := RunErr(20, func(i int) (int, error) { return i, fail(i) })
	if e == nil {
		t.Fatal("expected an error")
	}
	if te, ok := e.(*testError); !ok || te.i != 3 {
		t.Fatalf("got %v, want error from index 3", e)
	}

	out, e := RunErr(10, func(i int) (int, error) { return 2 * i, nil })
	if e != nil || out[9] != 18 {
		t.Fatalf("clean run: %v, %v", out, e)
	}
}

type testError struct{ i int }

func (e *testError) Error() string { return "point failed" }
