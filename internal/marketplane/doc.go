// Package marketplane is the horizontal-scaling layer of the market: it
// shards the per-host auctioneers across N in-process partitions so clears
// proceed under N independent locks instead of one.
//
// The shape follows the two systems the paper builds on. Tycoon (Lai et al.,
// cs/0412038) runs one auctioneer per host with only a thin stateless index
// on top, so the market itself has no central lock to saturate; Plane
// reproduces that by hash-partitioning host markets across shards, each
// clearing its hosts once per tick in a single batch (instead of recomputing
// prices per bid). An idle auctioneer does no work there, and none here: a market whose clear left it quiet sleeps, its
// shard sweeps the awake ones only, and the sleeper replays what it missed to
// its observers when it is bid on or read (see Plane). The bank is not
// sharded: like the paper's (§2.2) and Tycoon's, it is one service every
// broker and auctioneer calls, one bank.Bank. Every name only bench/plane.go
// calls — the bid queue, TickShard, the price cache behind PriceAt, and
// ShardedBank — is in benchonly.go, and no world pays for any of it.
//
// Determinism contract: a market's clear reads and writes that market
// alone, TickShard sorts queued bids before it applies them, and TickAll
// sweeps the shards in order on the caller's goroutine and returns results in
// canonical host order whichever shard cleared a host, so what a plane
// computes does not depend on goroutine scheduling
// (TestShardCountInvariance). A world's plane has one shard: grid.Cluster
// clears every tick through it and delivers the results afterwards, in host
// order. Only bench/plane.go runs more than one shard, a worker on each.
package marketplane
