package coalition

import "fedshare/internal/obs"

// Process-wide instrumentation for the coalition engine. Batch sweeps are
// always counted; durations are recorded only for lattices of at least
// batchTimingMinCoalitions entries, because on smaller games the two clock
// reads would cost more than the sweep they time and the histogram would
// measure the clock, not the kernel.
var (
	batchesTotal = obs.Default.Counter("fedshare_coalition_batches_total",
		"Batched coalition-lattice sweeps (BatchedValues).")
	batchSeconds = obs.Default.Histogram("fedshare_coalition_batch_seconds",
		"Durations of batched coalition-lattice sweeps over at least 2^8 coalitions.",
		nil)
	shapleySamplesTotal = obs.Default.Counter("fedshare_shapley_samples_total",
		"Permutations evaluated by the sampling Shapley estimator.")
	shapleyCIHalfWidth = obs.Default.Gauge("fedshare_shapley_ci_halfwidth",
		"Largest per-player 95% confidence half-width after the sampling Shapley estimator's most recent aggregation round.")
)

// batchTimingMinCoalitions is the smallest lattice worth timing: below
// 2^8 coalitions a sweep finishes in well under a microsecond.
const batchTimingMinCoalitions = 1 << 8
