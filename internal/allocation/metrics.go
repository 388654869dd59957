package allocation

import "fedshare/internal/obs"

// Prefix-solver counters. PrefixSolver batches its per-step deltas and
// flushes them on Reset/Stats (once per permutation half-walk, and once
// more when a sampling worker finishes), so the incremental hot path
// performs no atomic operations.
var (
	prefixStepsTotal = obs.Default.Counter("fedshare_allocation_prefix_steps_total",
		"Incremental prefix-solver steps (PrefixSolver Extend and Walk steps that add locations).")
	prefixFallbacksTotal = obs.Default.Counter("fedshare_allocation_prefix_fallbacks_total",
		"Prefix-solver steps no incremental path could certify: a full re-solve of the prefix pool, or a count-vector memo read on the collapsed class game.")
)

// PrefixCounters snapshots the process-wide prefix-solver counters
// (steps, fallbacks) for delta reporting (fedsim -v).
func PrefixCounters() (steps, fallbacks int64) {
	return prefixStepsTotal.Value(), prefixFallbacksTotal.Value()
}
