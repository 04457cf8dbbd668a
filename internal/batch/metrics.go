package batch

import "tycoongrid/internal/metrics"

// Baseline-scheduler state after each dispatch pass.
var (
	mBatchQueueDepth = metrics.Default().Gauge("batch_queue_depth",
		"Jobs with undispatched sub-jobs after the last dispatch pass.")
	mBatchFreeCPUs = metrics.Default().Gauge("batch_free_cpus",
		"Idle CPUs after the last dispatch pass.")
)
