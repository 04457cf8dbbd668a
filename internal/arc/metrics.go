package arc

import "tycoongrid/internal/metrics"

// Job-lifecycle instrumentation mirroring the states of the Grid monitor:
// a gauge tracks the live ACCEPTED/PREPARING queue, counters record
// submissions and terminal outcomes.
var (
	mJobsSubmitted = metrics.Default().Counter("arc_jobs_submitted_total",
		"xRSL jobs accepted by the meta-scheduler.")
	mJobsTerminal = metrics.Default().CounterVec("arc_jobs_terminal_total",
		"Jobs reaching a terminal state.", "state")
	mJobsQueued = metrics.Default().Gauge("arc_jobs_queued",
		"Jobs in ACCEPTED or PREPARING (stage-in).")
	mMetaPicks = metrics.Default().CounterVec("arc_meta_picks_total",
		"Meta-scheduler matchmaking decisions by strategy and chosen replica.",
		"strategy", "replica")
	// Spot prices live near the 1/3600 credits/s reserve, so the error
	// buckets span reserve/10 up to ~100x reserve.
	mMetaPredictionError = metrics.Default().Histogram("arc_meta_prediction_abs_error",
		"Absolute error between the strategy's price forecast and the realized partition price one horizon later (credits/s).",
		[]float64{0.00003, 0.0001, 0.0003, 0.001, 0.003, 0.01, 0.03})
)

// noteTerminal records a terminal transition under its monitor label.
func noteTerminal(s State) {
	switch s {
	case StateFinished:
		mJobsTerminal.With("finished").Inc()
	case StateFailed:
		mJobsTerminal.With("failed").Inc()
	case StateKilled:
		mJobsTerminal.With("killed").Inc()
	}
}
