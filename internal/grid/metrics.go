package grid

import "tycoongrid/internal/metrics"

// Cluster instrumentation. The gauges are recomputed once per reallocation
// tick (the natural sampling interval of the simulated grid) rather than on
// every task event.
var (
	mTicks = metrics.Default().Counter("grid_reallocation_ticks_total",
		"Cluster-wide reallocation ticks executed.")
	mTasksCompleted = metrics.Default().Counter("grid_tasks_completed_total",
		"Tasks that ran to completion.")
	mRunningTasks = metrics.Default().Gauge("grid_running_tasks",
		"Live tasks across all hosts, sampled at the last tick.")
	mHostUtilization = metrics.Default().Gauge("grid_host_utilization",
		"Fraction of hosts running at least one task, sampled at the last tick.")
	mHostFailures = metrics.Default().Counter("host_failures_total",
		"Host crashes injected or observed (FailHost calls).")
	mHostRecoveries = metrics.Default().Counter("host_recoveries_total",
		"Failed hosts brought back online (RecoverHost calls).")
	mHostsDown = metrics.Default().Gauge("hosts_down",
		"Hosts currently failed, sampled at the last tick.")
	mTasksKilled = metrics.Default().Counter("grid_tasks_killed_total",
		"Running tasks killed by host failures.")

	// The tick's three passes, each timed once a tick (Cluster.tick). The
	// children are resolved here, so a tick makes no label lookup.
	mTickPhase = metrics.Default().HistogramVec("grid_tick_phase_seconds",
		"Wall time of one pass of a reallocation tick: clear (every awake market), settle (OnSettle), advance (busy hosts' tasks).",
		[]float64{1e-5, 1e-4, 1e-3, 0.01, 0.1, 1}, "phase")
	mPhaseClear   = mTickPhase.With("clear")
	mPhaseSettle  = mTickPhase.With("settle")
	mPhaseAdvance = mTickPhase.With("advance")
)
