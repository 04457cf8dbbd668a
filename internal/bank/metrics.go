package bank

import "tycoongrid/internal/metrics"

// Ledger instrumentation — the accounting visibility GridBank argues a grid
// economy needs before it is deployable. Rejection counters are split by
// cause so a spike in bad signatures (key mismatch, replayed clients) is
// distinguishable from ordinary insufficient-funds pressure.
var (
	mAccounts = metrics.Default().Gauge("bank_accounts",
		"Accounts currently registered, including sub-accounts.")
	mDeposits = metrics.Default().Counter("bank_deposits_total",
		"Operator deposits credited.")
	mTransfers = metrics.Default().Counter("bank_transfers_total",
		"Owner-signed transfers executed.")
	mTransferAmount = metrics.Default().Histogram("bank_transfer_amount_credits",
		"Amount of each executed transfer in credits; the _sum is total volume moved.",
		[]float64{0.1, 1, 10, 100, 1000, 10000, 100000})
	mRejectedSigs = metrics.Default().Counter("bank_rejected_signatures_total",
		"Transfers rejected because the owner signature failed verification.")
	mNonceReuse = metrics.Default().Counter("bank_nonce_reuse_total",
		"Transfers rejected for replaying an already-consumed nonce.")
	mInsufficient = metrics.Default().Counter("bank_insufficient_funds_total",
		"Transfers and internal moves rejected for insufficient balance.")
	mInternalMoves = metrics.Default().Counter("bank_internal_moves_total",
		"Broker/auctioneer-initiated moves (charges, refunds, funding).")
	mTransferReplays = metrics.Default().Counter("bank_transfer_replays_total",
		"Transfers answered from the stored receipt (idempotent client retry).")
	mRecoverySeconds = metrics.Default().Histogram("bank_recovery_seconds",
		"Time to rebuild bank state from the latest snapshot plus WAL replay.",
		[]float64{0.001, 0.01, 0.05, 0.1, 0.5, 1, 5, 30})
	mTransferSeconds = metrics.Default().Histogram("bank_transfer_seconds",
		"Wall time of one executed transfer, group-commit wait included; exemplars carry the active trace.",
		[]float64{1e-6, 1e-5, 1e-4, 1e-3, 0.005, 0.01, 0.05, 0.1, 0.5})

	// The layers of one executed transfer, each observed once per Transfer
	// that bank_transfer_seconds observes, with no exemplar. The children are
	// resolved here, so a transfer makes no label lookup.
	mTransferPhase = metrics.Default().HistogramVec("bank_transfer_phase_seconds",
		"Wall time of one layer of an executed transfer: verify (owner signature), sign (receipt), ledger (waiting for and holding the ledger lock, twice), wal (waiting for the log).",
		[]float64{1e-6, 1e-5, 1e-4, 1e-3, 0.01, 0.1, 1}, "phase")
	mPhaseVerify = mTransferPhase.With("verify")
	mPhaseSign   = mTransferPhase.With("sign")
	mPhaseLedger = mTransferPhase.With("ledger")
	mPhaseWAL    = mTransferPhase.With("wal")
)
