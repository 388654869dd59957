package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fedshare/internal/coalition"
	"fedshare/internal/scenario"
)

// testSpec is a small real spec (5 facilities, 6 threshold points) used
// where tests need actual executor traffic rather than a synthetic job.
func testSpec(id string) *scenario.Spec {
	return &scenario.Spec{
		ID: id, Title: "engine test", XLabel: "l",
		Facilities: []scenario.FacilitySpec{
			{Name: "A", Locations: 20, Resources: 8},
			{Name: "B", Locations: 40, Resources: 4},
			{Name: "C", Locations: 80, Resources: 2},
		},
		Demand:   []scenario.DemandSpec{{Name: "batch", Count: 10}},
		Policies: []string{"proportional"},
		Axis:     scenario.AxisSpec{Variable: "threshold", From: 0, To: 100, Step: 20},
	}
}

// blockingJob returns a job that signals on started (if non-nil), then
// blocks until release closes or its context is cancelled.
func blockingJob(started chan<- struct{}, release <-chan struct{}) JobFunc {
	return func(ctx context.Context, progress scenario.ProgressFunc) (*scenario.Result, error) {
		if started != nil {
			close(started)
		}
		select {
		case <-release:
			return &scenario.Result{ID: "blocked"}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

func waitState(t *testing.T, e *Engine, id string, want State) Run {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		r, err := e.Get(id)
		if err != nil {
			t.Fatalf("Get(%s): %v", id, err)
		}
		if r.State == want {
			return r
		}
		time.Sleep(2 * time.Millisecond)
	}
	r, _ := e.Get(id)
	t.Fatalf("run %s stuck in %s, want %s", id, r.State, want)
	return Run{}
}

func TestSubmitRunsSpecToCompletion(t *testing.T) {
	e := New(Options{})
	defer e.Close()
	spec := testSpec("engine-done")
	id, err := e.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if r.State != StateDone {
		t.Fatalf("state = %s (%s), want done", r.State, r.Error)
	}
	if r.Result == nil || len(r.Result.Series) != 3 {
		t.Fatalf("result = %+v, want 3 series (one per facility)", r.Result)
	}
	if r.Progress.Total == 0 || r.Progress.Done != r.Progress.Total {
		t.Fatalf("progress = %+v, want done == total > 0", r.Progress)
	}

	// The engine path must produce exactly what the synchronous executor
	// does — that identity is what lets fedsim and the served API share it.
	direct, err := scenario.RunContext(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := r.Result.JSON()
	want, _ := direct.JSON()
	if string(got) != string(want) {
		t.Fatalf("engine result differs from scenario.Run:\n%s\nvs\n%s", got, want)
	}
}

func TestSubmitRejectsInvalidSpec(t *testing.T) {
	e := New(Options{})
	defer e.Close()
	if _, err := e.Submit(&scenario.Spec{ID: "nope"}); err == nil {
		t.Fatal("invalid spec accepted")
	}
	if got := len(e.List()); got != 0 {
		t.Fatalf("invalid spec left %d runs in the table", got)
	}
}

func TestCancelQueuedRun(t *testing.T) {
	e := New(Options{MaxConcurrent: 1})
	defer e.Close()
	started := make(chan struct{})
	release := make(chan struct{})
	blocker, err := e.SubmitJob("blocker", blockingJob(started, release))
	if err != nil {
		t.Fatal(err)
	}
	<-started

	// The second job queues behind the blocker; its fn must never run.
	var ran atomic.Bool
	queued, err := e.SubmitJob("queued", func(ctx context.Context, progress scenario.ProgressFunc) (*scenario.Result, error) {
		ran.Store(true)
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if r, _ := e.Get(queued); r.State != StateQueued {
		t.Fatalf("second run state = %s, want queued", r.State)
	}
	if err := e.Cancel(queued); err != nil {
		t.Fatal(err)
	}
	r := waitState(t, e, queued, StateCancelled)
	if r.Error == "" {
		t.Fatal("cancelled run has no error")
	}
	close(release)
	if r, err := e.Wait(context.Background(), blocker); err != nil || r.State != StateDone {
		t.Fatalf("blocker finished %s, %v", r.State, err)
	}
	if ran.Load() {
		t.Fatal("cancelled queued run executed anyway")
	}
	// A terminal run can't be re-cancelled.
	if err := e.Cancel(queued); !errors.Is(err, ErrFinished) {
		t.Fatalf("re-cancel error = %v, want ErrFinished", err)
	}
}

func TestCancelMidSweepRun(t *testing.T) {
	e := New(Options{})
	defer e.Close()
	// The job runs a real spec through RunContext, but gates the first
	// progress report so the test can cancel while the sweep is provably
	// mid-flight.
	firstPoint := make(chan struct{})
	resume := make(chan struct{})
	var once sync.Once
	spec := testSpec("engine-midsweep")
	id, err := e.SubmitJob(spec.ID, func(ctx context.Context, progress scenario.ProgressFunc) (*scenario.Result, error) {
		return scenario.RunContext(ctx, spec, func(done, total int) {
			progress(done, total)
			if done >= 1 {
				once.Do(func() { close(firstPoint) })
				<-resume
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	<-firstPoint
	if err := e.Cancel(id); err != nil {
		t.Fatal(err)
	}
	close(resume)
	r, err := e.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if r.State != StateCancelled {
		t.Fatalf("state = %s (%s), want cancelled", r.State, r.Error)
	}
	if r.Result != nil {
		t.Fatal("cancelled run kept a result")
	}
	if r.Progress.Done == 0 || r.Progress.Done >= r.Progress.Total {
		t.Fatalf("progress = %+v, want strictly mid-sweep", r.Progress)
	}
}

func TestPanickingJobFailsWithoutKillingEngine(t *testing.T) {
	e := New(Options{})
	defer e.Close()
	id, err := e.SubmitJob("boom", func(ctx context.Context, progress scenario.ProgressFunc) (*scenario.Result, error) {
		panic("spec exploded")
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if r.State != StateFailed {
		t.Fatalf("state = %s, want failed", r.State)
	}
	if !strings.Contains(r.Error, "panicked") || !strings.Contains(r.Error, "spec exploded") {
		t.Fatalf("error %q does not describe the panic", r.Error)
	}

	// The engine must keep serving: a healthy run after the panic succeeds.
	id2, err := e.Submit(testSpec("engine-after-panic"))
	if err != nil {
		t.Fatal(err)
	}
	if r, err := e.Wait(context.Background(), id2); err != nil || r.State != StateDone {
		t.Fatalf("post-panic run finished %s, %v", r.State, err)
	}
}

// TestPanickingWorkerFailsRun runs a job whose Shapley computation
// panics on a sampling worker goroutine, as a game that panics on one
// coalition makes it: the run must end failed, describing the panic,
// rather than end the process.
func TestPanickingWorkerFailsRun(t *testing.T) {
	e := New(Options{})
	defer e.Close()
	game := coalition.MemberFunc{Players: 8, V: func(members []int) float64 {
		mask := 0
		for _, p := range members {
			mask |= 1 << p
		}
		if mask == 0b10110101 {
			panic("bad coalition")
		}
		return float64(len(members))
	}}
	id, err := e.SubmitJob("worker-panic", func(ctx context.Context, progress scenario.ProgressFunc) (*scenario.Result, error) {
		_, err := coalition.Values(game, coalition.Options{Method: coalition.MethodApprox, Workers: 4, Samples: 2000, Seed: 1})
		return &scenario.Result{}, err
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if r.State != StateFailed || !strings.Contains(r.Error, "bad coalition") {
		t.Fatalf("run ended %s (%q), want failed with the game's panic", r.State, r.Error)
	}
}

func TestConcurrencyBound(t *testing.T) {
	const bound = 3
	e := New(Options{MaxConcurrent: bound})
	defer e.Close()
	var active, peak atomic.Int64
	release := make(chan struct{})
	var ids []string
	for i := 0; i < 20; i++ {
		id, err := e.SubmitJob(fmt.Sprintf("job-%d", i), func(ctx context.Context, progress scenario.ProgressFunc) (*scenario.Result, error) {
			n := active.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			<-release
			active.Add(-1)
			return &scenario.Result{}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// Let the scheduler fill every slot before releasing the jobs.
	deadline := time.Now().Add(5 * time.Second)
	for active.Load() < bound && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(release)
	for _, id := range ids {
		if r, err := e.Wait(context.Background(), id); err != nil || r.State != StateDone {
			t.Fatalf("run %s finished %s, %v", id, r.State, err)
		}
	}
	if p := peak.Load(); p > bound {
		t.Fatalf("observed %d concurrent runs, bound is %d", p, bound)
	}
}

func TestRunTableEvictsOldestTerminal(t *testing.T) {
	e := New(Options{MaxRuns: 3})
	defer e.Close()
	var first string
	for i := 0; i < 3; i++ {
		id, err := e.SubmitJob(fmt.Sprintf("t-%d", i), func(ctx context.Context, progress scenario.ProgressFunc) (*scenario.Result, error) {
			return &scenario.Result{}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = id
		}
		if _, err := e.Wait(context.Background(), id); err != nil {
			t.Fatal(err)
		}
	}
	// The 4th submission pushes the table over its bound; the oldest
	// terminal run goes.
	id, err := e.SubmitJob("t-3", blockingJob(nil, make(chan struct{})))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Get(first); !errors.Is(err, ErrNotFound) {
		t.Fatalf("oldest terminal run still present (err=%v)", err)
	}
	if _, err := e.Get(id); err != nil {
		t.Fatalf("live run evicted: %v", err)
	}
	if got := len(e.List()); got != 3 {
		t.Fatalf("table holds %d runs, want 3", got)
	}
}

func TestConcurrentSubmitsRespectBoundUnderRace(t *testing.T) {
	// Satellite regression: hammer the engine from many goroutines while
	// runs are cancelled mid-flight; -race validates the run-table locking.
	// MaxRuns must hold all 40 runs: eviction of a finished run before its
	// submitter calls Wait would legitimately return ErrNotFound.
	const bound = 2
	e := New(Options{MaxConcurrent: bound, MaxRuns: 64})
	defer e.Close()
	var peak, active atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				id, err := e.SubmitJob(fmt.Sprintf("g%d-%d", g, i), func(ctx context.Context, progress scenario.ProgressFunc) (*scenario.Result, error) {
					n := active.Add(1)
					defer active.Add(-1)
					for {
						p := peak.Load()
						if n <= p || peak.CompareAndSwap(p, n) {
							break
						}
					}
					progress(1, 2)
					select {
					case <-time.After(time.Millisecond):
					case <-ctx.Done():
						return nil, ctx.Err()
					}
					return &scenario.Result{}, nil
				})
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				if i%2 == 0 {
					_ = e.Cancel(id)
				}
				if _, err := e.Wait(context.Background(), id); err != nil {
					t.Errorf("wait: %v", err)
				}
			}
		}(g)
	}
	wg.Wait()
	if p := peak.Load(); p > bound {
		t.Fatalf("observed %d concurrent runs, bound is %d", p, bound)
	}
}

func TestCloseCancelsLiveRunsAndRejectsNew(t *testing.T) {
	e := New(Options{MaxConcurrent: 1})
	started := make(chan struct{})
	id, err := e.SubmitJob("live", blockingJob(started, make(chan struct{})))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	e.Close()
	r, err := e.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if r.State != StateCancelled {
		t.Fatalf("state after Close = %s, want cancelled", r.State)
	}
	if _, err := e.SubmitJob("late", blockingJob(nil, nil)); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after Close: %v, want ErrClosed", err)
	}
}

func TestRunSyncWrapper(t *testing.T) {
	e := New(Options{})
	defer e.Close()
	res, err := e.Run(context.Background(), testSpec("engine-sync"))
	if err != nil {
		t.Fatal(err)
	}
	if res.ID != "engine-sync" || len(res.Series) != 3 {
		t.Fatalf("unexpected result %+v", res)
	}
	// And the context aborts it.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Run(ctx, testSpec("engine-sync-cancelled")); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Run error = %v", err)
	}
}
