package pricefeed

import "tycoongrid/internal/metrics"

// The feed sits between the auctions and the predictors; these two counters
// say whether the markets' rings are seeing the clears (recorded grows every
// clear) and whether anything upstream ever produced a sample the boundary
// had to refuse (rejected should stay 0 in a healthy market).
var (
	mSamplesRecorded = metrics.Default().Counter("pricefeed_samples_recorded_total",
		"Spot-price observations accepted into per-host rings.")
	mSamplesRejected = metrics.Default().Counter("pricefeed_samples_rejected_total",
		"Spot-price observations refused at the ring boundary (non-finite, out-of-order, duplicate).")
)
