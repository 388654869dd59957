// Package obs is a dependency-free observability subsystem: a
// concurrency-safe metrics registry (counters, gauges, fixed-bucket
// histograms, labeled families), an HTTP exposition handler serving the
// Prometheus text format and a JSON snapshot, and a lightweight span API
// that records duration histograms and optionally emits structured
// key=value trace lines through a pluggable sink.
//
// Design goals, in order:
//
//  1. Zero cost when idle: a registered metric is a couple of words of
//     memory; nobody pays for scraping machinery until a scrape happens.
//  2. Atomic hot path: Counter.Inc, Gauge.Set, and Histogram.Observe are
//     lock-free atomic operations so they can sit inside the coalition
//     kernel, the allocation solver, and the sweep pool without perturbing
//     the benchmarks they measure.
//  3. Idempotent registration: looking up a family that already exists
//     returns the existing one, so independent subsystems (and multiple
//     sfa.Server instances in one test process) can share a registry
//     without coordination. Re-registering a name with a different type
//     or label arity panics — that is always a programmer error.
//
// The package depends only on the standard library and imports no other
// fedshare package, so every layer of the system can instrument itself.
// Metric access goes through a Registry; the process-wide Default registry
// is what fedd exposes over HTTP and fedsim snapshots at end of run.
package obs

// Default is the process-wide registry. Library packages register their
// instrumentation here; fedd serves it via Handler, and fedsim -json
// snapshots it at end of run.
var Default = NewRegistry()
