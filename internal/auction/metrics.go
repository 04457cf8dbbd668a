package auction

import "tycoongrid/internal/metrics"

// Market instrumentation, registered in the process-wide default registry.
// A host's spot price is not among it: the market's price ring holds its
// history (History) and an auctioneer's /status publishes the current one.
var (
	mClears = metrics.Default().Counter("auction_clears_total",
		"Reallocation clears executed across all host markets.")
	mBidsPlaced = metrics.Default().Counter("auction_bids_placed_total",
		"Bids entered or replaced.")
	mBidBudget = metrics.Default().Histogram("auction_bid_budget_credits",
		"Budget of each placed bid in credits; the _sum is total bid volume.",
		[]float64{0.1, 1, 10, 100, 1000, 10000, 100000})
)
