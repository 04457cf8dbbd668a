package durable

import "tycoongrid/internal/metrics"

// WAL instrumentation. The fsync histogram is the one to watch: group
// commit means its _count is batches, not records, so records_total /
// fsync_count is the achieved batching factor under load.
var (
	mRecords = metrics.Default().Counter("wal_records_total",
		"Records appended to the write-ahead log.")
	mFsync = metrics.Default().Histogram("wal_fsync_seconds",
		"Latency of each WAL fsync (one per group-commit batch).",
		[]float64{0.00001, 0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 1})
)
