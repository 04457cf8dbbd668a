package marketplane

import "tycoongrid/internal/metrics"

// Plane instrumentation. Each shard resolves its clears child at
// construction: CounterVec.With() takes the family's read lock and a map
// lookup, which profiles as real contention when ten thousand hosts bid
// through a handful of shards, so a sweep pays one atomic add and no lookup.
var (
	mShardClears = metrics.Default().CounterVec("marketplane_shard_clears_total",
		"Host-market clears executed, by shard.", "shard")

	mXferLocal = metrics.Default().Counter("marketplane_transfers_local_total",
		"ShardedBank moves whose two accounts hash to one shard (bench/plane.go only).")
	mXferCross = metrics.Default().Counter("marketplane_transfers_cross_shard_total",
		"ShardedBank moves whose two accounts hash to different shards (bench/plane.go only).")
)
