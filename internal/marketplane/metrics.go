package marketplane

import (
	"strconv"

	"tycoongrid/internal/metrics"
)

// Plane instrumentation. Families are registered once at package
// init and per-shard children are resolved at construction time: CounterVec
// .With() takes the family's read lock and a map lookup, which profiles as
// real contention when ten thousand hosts bid through a handful of shards,
// so no hot path here ever performs a name or label lookup — each shard
// holds its resolved children and pays one atomic add per event.
var (
	mPlaneTicks = metrics.Default().Counter("marketplane_ticks_total",
		"Whole-plane tick sweeps executed (all shards, one batch clear each).")
	mBidsEnqueued = metrics.Default().CounterVec("marketplane_bids_enqueued_total",
		"Bids queued for the next batch clear.", "shard")
	mBidsApplied = metrics.Default().CounterVec("marketplane_bids_applied_total",
		"Queued bids entered into host markets at a batch clear.", "shard")
	mBidsDropped = metrics.Default().CounterVec("marketplane_bids_dropped_total",
		"Queued bids discarded (host down or rejected by its market).", "shard")
	mShardClears = metrics.Default().CounterVec("marketplane_shard_clears_total",
		"Host-market clears executed, by shard.", "shard")
	mBidApplySeconds = metrics.Default().Histogram("marketplane_bid_apply_seconds",
		"Wall time to apply one shard's queued bid batch at a clear; exemplars carry the active trace.",
		[]float64{1e-6, 1e-5, 1e-4, 1e-3, 0.005, 0.01, 0.05, 0.1, 0.5})
	mShardSpotMean = metrics.Default().GaugeVec("marketplane_shard_spot_price_mean",
		"Mean spot price across the shard's host markets after its last clear.", "shard")

	mXferLocal = metrics.Default().Counter("marketplane_transfers_local_total",
		"ShardedBank moves whose two accounts hash to one shard (bench/plane.go only).")
	mXferCross = metrics.Default().Counter("marketplane_transfers_cross_shard_total",
		"ShardedBank moves whose two accounts hash to different shards (bench/plane.go only).")
)

// shardCounters are the per-shard children a shard resolves once and holds.
type shardCounters struct {
	enqueued *metrics.Counter
	applied  *metrics.Counter
	dropped  *metrics.Counter
	clears   *metrics.Counter
	spotMean *metrics.Gauge
}

func countersFor(shard int) shardCounters {
	label := strconv.Itoa(shard)
	return shardCounters{
		enqueued: mBidsEnqueued.With(label),
		applied:  mBidsApplied.With(label),
		dropped:  mBidsDropped.With(label),
		clears:   mShardClears.With(label),
		spotMean: mShardSpotMean.With(label),
	}
}
