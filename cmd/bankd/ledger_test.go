package main

import (
	"testing"

	"tycoongrid/internal/bank"
)

// TestLedgerIsBounded: the bank bankd builds keeps at most twice
// bank.DefaultLedgerRetention ledger lines however many moves it makes, so a
// bankd that runs for months holds, and GET /accounts/{id}/history scans, a
// bounded ledger. Every move touches alice, so her history is the whole
// retained ledger.
func TestLedgerIsBounded(t *testing.T) {
	const n = bank.DefaultLedgerRetention
	_, id, err := identityFor("/O=Grid/CN=Bank", "ledger")
	if err != nil {
		t.Fatal(err)
	}
	b := newBank(id)
	for _, acct := range []bank.AccountID{"alice", "bob"} {
		if _, err := b.CreateAccount(acct, id.Public()); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Deposit("alice", bank.Credit, "grant"); err != nil {
		t.Fatal(err)
	}
	from, to := bank.AccountID("alice"), bank.AccountID("bob")
	for i := 0; i < 2*n+1; i++ {
		if err := b.MoveInternal(id, from, to, bank.Credit, bank.EntryTransfer, ""); err != nil {
			t.Fatal(err)
		}
		from, to = to, from
	}
	if got := len(b.History("alice")); got > 2*n {
		t.Errorf("after %d moves alice's history holds %d lines, want <= %d", 2*n+1, got, 2*n)
	}
	if got, err := b.Balance("bob"); err != nil || got != bank.Credit {
		t.Errorf("bob holds %v (%v), want %v", got, err, bank.Credit)
	}
}
