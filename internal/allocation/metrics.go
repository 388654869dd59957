package allocation

import "fedshare/internal/obs"

// The memo already counts hits/misses/entries in private atomics (they
// reset with Memo.Reset, hence gauges, not counters). Exporting them as
// callback gauges reads the existing counters at scrape time, so the
// Solve hot path is untouched.
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

func init() {
	obs.Default.GaugeFunc("fedshare_alloc_memo_hits",
		"Allocation-memo lookups served from the table since start/reset.",
		func() float64 { return float64(DefaultMemo.Stats().Hits) })
	obs.Default.GaugeFunc("fedshare_alloc_memo_misses",
		"Allocation-memo lookups that required a fresh solve since start/reset.",
		func() float64 { return float64(DefaultMemo.Stats().Misses) })
	obs.Default.GaugeFunc("fedshare_alloc_memo_entries",
		"Entries currently stored in the allocation memo.",
		func() float64 { return float64(DefaultMemo.Stats().Entries) })
	obs.Default.GaugeFunc("fedshare_alloc_memo_hit_ratio",
		"Fraction of allocation-memo lookups served from the table.",
		func() float64 { return DefaultMemo.Stats().HitRate() })
}
