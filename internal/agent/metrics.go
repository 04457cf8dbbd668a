package agent

import "tycoongrid/internal/metrics"

// Transfer-token accounting: every funded submission or boost redeems one
// bank-signed token at the broker, so these two counters are the market's
// admission record.
var (
	mTokenRedemptions = metrics.Default().Counter("token_redemptions_total",
		"Transfer tokens verified and redeemed for job funding (submits and boosts).")
	mTokenRejections = metrics.Default().Counter("token_rejections_total",
		"Transfer tokens rejected at verification (bad signature, expiry, reuse).")
	mChunksResubmitted = metrics.Default().Counter("agent_chunks_resubmitted_total",
		"Sub-job chunks re-queued after their host failed.")
	mEscrowFailedOver = metrics.Default().Counter("agent_escrow_failed_over_total",
		"Escrow re-bids onto a surviving host after a host failure.")
	mJobsFailed = metrics.Default().Counter("agent_jobs_failed_total",
		"Jobs terminated as failed (all hosts lost, deadline exceeded, or cancelled).")
)

// mUnbanked is how far the bank lags the market: charges booked on running
// jobs' tabs and not banked yet, over every agent of the process. It moves by
// deltas — up once a tick for an agent that booked charges, down once for a
// job released — so worlds replicated in parallel share it without a lock.
var mUnbanked = metrics.Default().Gauge("agent_unbanked_credits",
	"Credits charged to running jobs that their escrow has not yet paid out to host earnings.")
