package bank

import (
	"testing"

	"tycoongrid/internal/pki"
	"tycoongrid/internal/sim"
)

func TestDriftZeroAcrossOperations(t *testing.T) {
	ca, err := pki.NewDeterministicCA("/CN=CA", [32]byte{1})
	if err != nil {
		t.Fatal(err)
	}
	bankID, _ := ca.IssueDeterministic("/CN=Bank", [32]byte{2})
	alice, _ := ca.IssueDeterministic("/O=Grid/CN=Alice", [32]byte{3})
	bob, _ := ca.IssueDeterministic("/O=Grid/CN=Bob", [32]byte{4})

	b := New(bankID, sim.WallClock{})
	if got := b.Drift(); got != 0 {
		t.Fatalf("fresh bank drift = %v", got)
	}
	if _, err := b.CreateAccount("alice", alice.Public()); err != nil {
		t.Fatal(err)
	}
	if _, err := b.CreateAccount("bob", bob.Public()); err != nil {
		t.Fatal(err)
	}
	if err := b.Deposit("alice", 500*Credit, "grant"); err != nil {
		t.Fatal(err)
	}
	if got := b.Drift(); got != 0 {
		t.Fatalf("drift after deposit = %v (minted must absorb deposits)", got)
	}
	req := TransferRequest{From: "alice", To: "bob", Amount: 120 * Credit, Nonce: "n1"}
	req.Sig = alice.Sign(req.SigningBytes())
	if _, err := b.Transfer(req); err != nil {
		t.Fatal(err)
	}
	if got := b.Drift(); got != 0 {
		t.Fatalf("drift after transfer = %v", got)
	}
	// RecordConservation must not panic and publishes the gauge.
	b.RecordConservation()
}

// TestDriftBaselineSurvivesRecovery reopens a WAL-backed bank: the recovered
// balances become the new baseline, so drift is zero immediately after
// recovery even though the minted counter restarted.
func TestDriftBaselineSurvivesRecovery(t *testing.T) {
	dir := t.TempDir()
	f := newDurableFixture(t, dir, 2) // low threshold: force snapshots
	if _, err := f.bank.CreateAccount("alice", f.alice.Public()); err != nil {
		t.Fatal(err)
	}
	if _, err := f.bank.CreateAccount("bob", f.bob.Public()); err != nil {
		t.Fatal(err)
	}
	if err := f.bank.Deposit("alice", 300*Credit, "grant"); err != nil {
		t.Fatal(err)
	}
	f.transfer(t, "alice", "bob", 50*Credit, "n1")
	if err := f.bank.Deposit("bob", 10*Credit, "bonus"); err != nil {
		t.Fatal(err)
	}
	if got := f.bank.Drift(); got != 0 {
		t.Fatalf("pre-restart drift = %v", got)
	}
	f.close(t)

	f.reopen(t, dir, 2)
	defer f.close(t)
	if got := f.bank.Drift(); got != 0 {
		t.Fatalf("post-recovery drift = %v (baseline must re-anchor)", got)
	}
	// And stays zero through post-recovery activity.
	if err := f.bank.Deposit("alice", 7*Credit, "more"); err != nil {
		t.Fatal(err)
	}
	f.transfer(t, "bob", "alice", 5*Credit, "n2")
	if got := f.bank.Drift(); got != 0 {
		t.Fatalf("post-recovery activity drift = %v", got)
	}
}
