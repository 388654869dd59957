// Package engine runs scenarios asynchronously. It is the execution layer
// between the declarative scenario package (specs, validation, the
// synchronous RunContext executor) and the presentation layers on top of
// it (the fedd HTTP API, the embedded dashboard, and the fedsim CLI): an
// Engine accepts submissions, bounds how many run concurrently, tracks
// every run in a thread-safe table (queued → running → done / failed /
// cancelled), surfaces per-point progress, and isolates panicking specs so
// one bad experiment cannot take down a serving daemon.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"fedshare/internal/obs"
	"fedshare/internal/scenario"
)

// State is a run's position in its lifecycle.
type State string

// Run lifecycle states. Queued and Running are live; the other three are
// terminal.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	switch s {
	case StateDone, StateFailed, StateCancelled:
		return true
	}
	return false
}

// Progress is a run's sweep position: Done model-evaluation points out of
// Total. Total is 0 until the executor has sized the grid.
type Progress struct {
	Done  int `json:"done"`
	Total int `json:"total"`
}

// Run is an immutable snapshot of one tracked run. Result is non-nil only
// in StateDone; Error is non-empty only in StateFailed and StateCancelled.
type Run struct {
	ID         string
	ScenarioID string
	State      State
	Progress   Progress
	Result     *scenario.Result
	Error      string
	Submitted  time.Time
	Started    time.Time // zero until the run leaves the queue
	Finished   time.Time // zero until terminal
}

// JobFunc is the unit the engine executes: it honors ctx cancellation and
// reports per-point progress. Submit wraps scenario.RunContext in one;
// SubmitJob callers supply their own.
type JobFunc func(ctx context.Context, progress scenario.ProgressFunc) (*scenario.Result, error)

// Options configures an Engine.
type Options struct {
	// MaxConcurrent bounds how many runs execute simultaneously; further
	// submissions queue in FIFO order. 0 means 1.
	MaxConcurrent int
	// MaxRuns bounds the run table: when exceeded, the oldest *terminal*
	// runs are evicted (live runs are never dropped). 0 means 256.
	MaxRuns int
}

// Engine-plane instrumentation, alongside the per-scenario families the
// executor itself maintains (fedshare_scenario_runs_total,
// fedshare_scenario_points_total, and the scenario.run span).
var (
	submittedTotal = obs.Default.Counter("fedshare_engine_submitted_total",
		"Runs accepted by the scenario engine since process start.")
	finishedTotal = obs.Default.CounterVec("fedshare_engine_finished_total",
		"Runs finished by the scenario engine, by terminal state.", "state")
	activeRuns = obs.Default.Gauge("fedshare_engine_active_runs",
		"Scenario runs currently executing (bounded by the engine's concurrency limit).")
	queuedRuns = obs.Default.Gauge("fedshare_engine_queued_runs",
		"Scenario runs waiting for an execution slot.")
)

// run is the mutable tracked state behind a Run snapshot.
type run struct {
	Run
	cancel context.CancelFunc
	done   chan struct{} // closed on terminal transition
}

// Engine tracks and executes scenario runs.
type Engine struct {
	mu     sync.Mutex
	runs   map[string]*run
	order  []string // submission order, for List and eviction
	nextID uint64
	sem    chan struct{}
	maxRun int
	closed bool
	wg     sync.WaitGroup
}

// New returns an Engine ready to accept submissions.
func New(opts Options) *Engine {
	conc := opts.MaxConcurrent
	if conc <= 0 {
		conc = 1
	}
	maxRuns := opts.MaxRuns
	if maxRuns <= 0 {
		maxRuns = 256
	}
	return &Engine{
		runs:   make(map[string]*run),
		sem:    make(chan struct{}, conc),
		maxRun: maxRuns,
	}
}

// Errors the run-table operations return. ErrNotFound and ErrFinished are
// sentinel so the API layer can map them to 404 / 409.
var (
	ErrNotFound = errors.New("engine: no such run")
	ErrFinished = errors.New("engine: run already finished")
	ErrClosed   = errors.New("engine: engine is shut down")
)

// Submit validates and queues a declarative spec. It returns the run id
// immediately; execution proceeds asynchronously under the engine's
// concurrency bound. The spec is not copied — callers must not mutate it
// after submission.
func (e *Engine) Submit(spec *scenario.Spec) (string, error) {
	if err := spec.Validate(); err != nil {
		return "", err
	}
	return e.submit(spec.ID, func(ctx context.Context, progress scenario.ProgressFunc) (*scenario.Result, error) {
		return scenario.RunContext(ctx, spec, progress)
	})
}

// SubmitEntry queues a registry entry's spec.
func (e *Engine) SubmitEntry(entry scenario.Entry) (string, error) {
	return e.Submit(entry.Spec)
}

// SubmitJob queues an arbitrary job under the given scenario label. It is
// the primitive Submit builds on, exported for callers (and tests) that
// need custom execution wrapped in the run table.
func (e *Engine) SubmitJob(scenarioID string, fn JobFunc) (string, error) {
	return e.submit(scenarioID, fn)
}

func (e *Engine) submit(scenarioID string, fn JobFunc) (string, error) {
	ctx, cancel := context.WithCancel(context.Background())
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		cancel()
		return "", ErrClosed
	}
	e.nextID++
	id := fmt.Sprintf("run-%06d", e.nextID)
	r := &run{
		Run: Run{
			ID:         id,
			ScenarioID: scenarioID,
			State:      StateQueued,
			Submitted:  time.Now(),
		},
		cancel: cancel,
		done:   make(chan struct{}),
	}
	e.runs[id] = r
	e.order = append(e.order, id)
	e.evictLocked()
	e.wg.Add(1)
	e.mu.Unlock()
	submittedTotal.Inc()
	queuedRuns.Inc()
	go e.execute(r, ctx, fn)
	return id, nil
}

// execute drives one run to a terminal state: wait for a slot (abandoning
// the wait if cancelled while queued), run the job with panic isolation,
// and record the outcome.
func (e *Engine) execute(r *run, ctx context.Context, fn JobFunc) {
	defer e.wg.Done()
	select {
	case e.sem <- struct{}{}:
		defer func() { <-e.sem }()
	case <-ctx.Done():
		queuedRuns.Dec()
		e.finish(r, nil, ctx.Err())
		return
	}
	queuedRuns.Dec()
	activeRuns.Inc()
	defer activeRuns.Dec()

	e.mu.Lock()
	// Cancel may have raced the slot acquisition; don't resurrect a run
	// that is already terminal.
	if r.State.Terminal() {
		e.mu.Unlock()
		return
	}
	r.State = StateRunning
	r.Started = time.Now()
	e.mu.Unlock()

	res, err := e.runIsolated(r, ctx, fn)
	e.finish(r, res, err)
}

// runIsolated invokes the job, converting a panic into an error so one
// broken spec cannot crash the daemon the engine serves in.
func (e *Engine) runIsolated(r *run, ctx context.Context, fn JobFunc) (res *scenario.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("engine: run %s (%s) panicked: %v\n%s",
				r.ID, r.ScenarioID, p, debug.Stack())
		}
	}()
	progress := func(done, total int) {
		e.mu.Lock()
		// Progress can race the terminal transition when cancellation
		// overlaps a completing point; never let it overwrite a final state.
		if !r.State.Terminal() {
			r.Progress = Progress{Done: done, Total: total}
		}
		e.mu.Unlock()
	}
	return fn(ctx, progress)
}

// finish records a run's terminal state exactly once.
func (e *Engine) finish(r *run, res *scenario.Result, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if r.State.Terminal() {
		return
	}
	r.Finished = time.Now()
	switch {
	case err == nil:
		r.State = StateDone
		r.Result = res
		r.Progress.Done = r.Progress.Total
	case errors.Is(err, context.Canceled):
		r.State = StateCancelled
		r.Error = err.Error()
	default:
		r.State = StateFailed
		r.Error = err.Error()
	}
	finishedTotal.With(string(r.State)).Inc()
	close(r.done)
}

// Cancel requests cancellation of a queued or running run. Cancelling a
// queued run is immediate; a running run stops at its next sweep-point
// boundary. Terminal runs return ErrFinished.
func (e *Engine) Cancel(id string) error {
	e.mu.Lock()
	r, ok := e.runs[id]
	if !ok {
		e.mu.Unlock()
		return ErrNotFound
	}
	if r.State.Terminal() {
		e.mu.Unlock()
		return ErrFinished
	}
	e.mu.Unlock()
	r.cancel()
	return nil
}

// Get returns a snapshot of the run.
func (e *Engine) Get(id string) (Run, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	r, ok := e.runs[id]
	if !ok {
		return Run{}, ErrNotFound
	}
	return r.Run, nil
}

// List returns snapshots of every tracked run in submission order.
func (e *Engine) List() []Run {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Run, 0, len(e.order))
	for _, id := range e.order {
		out = append(out, e.runs[id].Run)
	}
	return out
}

// Wait blocks until the run reaches a terminal state (returning its final
// snapshot) or ctx is done.
func (e *Engine) Wait(ctx context.Context, id string) (Run, error) {
	e.mu.Lock()
	r, ok := e.runs[id]
	e.mu.Unlock()
	if !ok {
		return Run{}, ErrNotFound
	}
	select {
	case <-r.done:
		return e.Get(id)
	case <-ctx.Done():
		return Run{}, ctx.Err()
	}
}

// Run executes a spec synchronously through the engine: submit, wait,
// return the result. It is how the one-shot CLI paths share the exact
// executor, run table, and instrumentation the served API uses.
func (e *Engine) Run(ctx context.Context, spec *scenario.Spec) (*scenario.Result, error) {
	id, err := e.Submit(spec)
	if err != nil {
		return nil, err
	}
	stop := context.AfterFunc(ctx, func() { _ = e.Cancel(id) })
	defer stop()
	r, err := e.Wait(context.Background(), id)
	if err != nil {
		return nil, err
	}
	// The context is authoritative even when the run won the race and
	// finished before the cancellation landed: a caller that asked to stop
	// gets ctx.Err(), never a result it no longer wants.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	switch r.State {
	case StateDone:
		return r.Result, nil
	case StateCancelled:
		return nil, context.Canceled
	default:
		return nil, errors.New(r.Error)
	}
}

// evictLocked trims the oldest terminal runs once the table exceeds its
// bound. Live runs are never evicted, so the table can transiently exceed
// MaxRuns when everything in it is still queued or running.
func (e *Engine) evictLocked() {
	if len(e.order) <= e.maxRun {
		return
	}
	excess := len(e.order) - e.maxRun
	kept := e.order[:0]
	for _, id := range e.order {
		if excess > 0 && e.runs[id].State.Terminal() {
			delete(e.runs, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	e.order = kept
}

// Close cancels every live run and waits for all run goroutines to settle.
// Further submissions fail with ErrClosed.
func (e *Engine) Close() {
	e.mu.Lock()
	e.closed = true
	live := make([]*run, 0, len(e.order))
	for _, id := range e.order {
		if r := e.runs[id]; !r.State.Terminal() {
			live = append(live, r)
		}
	}
	e.mu.Unlock()
	for _, r := range live {
		r.cancel()
	}
	e.wg.Wait()
}
