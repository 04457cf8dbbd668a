package bank

import "tycoongrid/internal/metrics"

// mConservationDrift is set by RecordConservation — once per telemetry
// scrape tick, not per transaction, because computing the invariant walks
// every account.
var mConservationDrift = metrics.Default().Gauge("bank_conservation_drift_credits",
	"Invariant total minus baseline minus minted deposits; nonzero means money was created or destroyed.")

// Drift returns how far the bank's total money has diverged from what its
// deposit history can explain. Zero always, if the ledger is sound: any
// nonzero value is corruption.
func (b *Bank) Drift() Amount {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.totalLocked() - b.baseline - b.minted
}

// RecordConservation publishes Drift to the bank_conservation_drift_credits
// gauge; daemons wire it as a telemetry probe.
func (b *Bank) RecordConservation() {
	mConservationDrift.Set(b.Drift().Credits())
}
