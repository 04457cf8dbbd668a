package bank

import "tycoongrid/internal/metrics"

// Ledger instrumentation — the accounting visibility GridBank argues a grid
// economy needs before it is deployable.
var (
	mAccounts = metrics.Default().Gauge("bank_accounts",
		"Accounts currently registered, including sub-accounts.")
	mTransfers = metrics.Default().Counter("bank_transfers_total",
		"Owner-signed transfers executed.")
	mRejectedSigs = metrics.Default().Counter("bank_rejected_signatures_total",
		"Transfers rejected because the owner signature failed verification.")
	mInternalMoves = metrics.Default().Counter("bank_internal_moves_total",
		"Broker/auctioneer-initiated moves (charges, refunds, funding).")
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
