// Package sweep holds the repository's one worker pool, Each, and the
// parameter-sweep runner built on it. Every paper figure is a sweep — 20–30
// points, each building and solving a private federation game — and the
// points share no state, so they parallelize perfectly; the runner
// preserves deterministic point ordering in the output regardless of
// completion order, so figure tables are byte-identical to the sequential
// path. The lattice kernel and the Shapley sampler run their chunks and
// strata on Each too.
package sweep

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fedshare/internal/obs"
)

// Pool instrumentation. Per point the cost is one clock read, one
// histogram observation, and one gauge CAS — timestamps are chained
// within a pool slot (each point's end is the next point's start), so a
// sweep of n points pays one clock read per point plus one, not 2n.
var (
	pointsTotal = obs.Default.Counter("fedshare_sweep_points_total",
		"Sweep points evaluated since process start.")
	queueDepth = obs.Default.Gauge("fedshare_sweep_queue_depth",
		"Sweep points currently queued or running across all active sweeps.")
	pointSeconds = obs.Default.Histogram("fedshare_sweep_point_seconds",
		"Per-point evaluation latency across all sweeps.", nil)
)

// Each calls fn(w, i) once for every i in [0, n) on at most
// min(workers, n) goroutines; workers <= 0 means GOMAXPROCS. w is the
// calling goroutine's slot in [0, min(workers, n)), and no two calls with
// the same w run at once, so fn may keep scratch per slot. With one slot
// the calls run inline on the caller, in index order.
//
// A panic in fn is re-raised on the caller once every goroutine has
// returned; after it, the goroutines take no new index. A panic left on a
// pool goroutine would end the process, out of reach of any recover the
// caller set up, such as the scenario engine's, which turns a run's panic
// into a failed run.
func Each(n, workers int, fn func(w, i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers = min(workers, n); workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		panicMu sync.Mutex
		panicV  any
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					next.Store(int64(n))
					panicMu.Lock()
					if panicV == nil {
						panicV = r
					}
					panicMu.Unlock()
				}
			}()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(w, i)
			}
		}(w)
	}
	wg.Wait()
	if panicV != nil {
		panic(panicV)
	}
}

// Run evaluates fn(i) for every i in [0, n) on Each's pool, GOMAXPROCS
// wide, and returns the results indexed by i — output order is
// deterministic no matter how the points race. A panic in fn is re-raised
// in the caller's goroutine, as Each does.
func Run[T any](n int, fn func(i int) T) []T {
	if n <= 0 {
		return nil
	}
	out := make([]T, n)
	workers := min(runtime.GOMAXPROCS(0), n)
	queueDepth.Add(float64(n))
	var done atomic.Int64
	defer func() {
		// Points skipped by a panicking fn never ran their Dec; settle the
		// gauge so it cannot drift, and count only completed points.
		c := done.Load()
		queueDepth.Add(float64(c) - float64(n))
		pointsTotal.Add(c)
	}()
	prev := make([]time.Time, workers)
	start := time.Now()
	for w := range prev {
		prev[w] = start
	}
	Each(n, workers, func(w, i int) {
		out[i] = fn(i)
		now := time.Now()
		pointSeconds.Observe(now.Sub(prev[w]).Seconds())
		prev[w] = now
		queueDepth.Dec()
		done.Add(1)
	})
	return out
}

// RunErr is Run for point functions that can fail: it evaluates fn(i) for
// every i in [0, n) and returns the ordered results together with the
// lowest-indexed error (matching what a sequential loop would surface).
func RunErr[T any](n int, fn func(i int) (T, error)) ([]T, error) {
	type point struct {
		v   T
		err error
	}
	pts := Run(n, func(i int) point {
		v, err := fn(i)
		return point{v: v, err: err}
	})
	out := make([]T, len(pts))
	for i, p := range pts {
		if p.err != nil {
			return nil, p.err
		}
		out[i] = p.v
	}
	return out, nil
}
