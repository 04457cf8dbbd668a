package auction

import "tycoongrid/internal/metrics"

// Market instrumentation, registered in the process-wide default registry.
// The clearing-price gauge is labeled by host; each Market resolves its
// child once at construction so the Tick hot path pays one atomic store.
var (
	mClears = metrics.Default().Counter("auction_clears_total",
		"Reallocation clears executed across all host markets.")
	mBidsPlaced = metrics.Default().Counter("auction_bids_placed_total",
		"Bids entered or replaced.")
	mBoosts = metrics.Default().Counter("auction_boosts_total",
		"Funds added to live bids.")
	mBidsCancelled = metrics.Default().Counter("auction_bids_cancelled_total",
		"Bids withdrawn before exhaustion or deadline.")
	mBidsExpired = metrics.Default().Counter("auction_bids_expired_total",
		"Bids removed at a clear: budget exhausted or deadline passed.")
	mBidBudget = metrics.Default().Histogram("auction_bid_budget_credits",
		"Budget of each placed bid in credits; the _sum is total bid volume.",
		[]float64{0.1, 1, 10, 100, 1000, 10000, 100000})
	mClearingPrice = metrics.Default().GaugeVec("auction_clearing_price_credits_per_sec",
		"Spot price set by the last clear.", "host")
)
