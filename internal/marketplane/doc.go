// Package marketplane is the horizontal-scaling layer of the market: it
// shards the per-host auctioneers across N in-process partitions so clears
// proceed under N independent locks instead of one.
//
// The shape follows the two systems the paper builds on. Tycoon (Lai et al.,
// cs/0412038) runs one auctioneer per host with only a thin stateless index
// on top, so the market itself has no central lock to saturate; Plane
// reproduces that by hash-partitioning host markets across shards, each
// clearing its hosts once per tick in a single batch (instead of recomputing
// prices per bid) and publishing spot prices to a lock-free cache that bid
// placement reads without touching the auctioneer. An idle auctioneer does no
// work there, and none here: a market whose clear left it quiet sleeps, its
// shard sweeps the awake ones only, and the sleeper replays what it missed to
// its observers when it is bid on or read (see Plane). The bank is not
// sharded: like the paper's (§2.2) and Tycoon's, it is one service every
// broker and auctioneer calls, one bank.Bank. ShardedBank is only a name
// bench/plane.go still calls (see its comment).
//
// Determinism contract: a market's clear reads and writes that market
// alone, queued bids are sorted before they are applied, and TickAll returns
// results in canonical host order whichever shard cleared a host — so what a
// plane computes is the same at every shard count, bit for bit, and
// independent of goroutine scheduling (TestShardCountInvariance). One shard
// runs inline on the caller's goroutine (sim.FanOut with n == 1). grid.Cluster
// clears every tick through a plane and delivers the results afterwards, in
// host order, so a whole simulated world inherits the contract: its Shards
// setting is parallelism and nothing else.
package marketplane
