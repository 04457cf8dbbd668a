package bank

import (
	"bytes"
	"errors"
	"testing"

	"tycoongrid/internal/durable"
	"tycoongrid/internal/pki"
	"tycoongrid/internal/sim"
)

// durableFixture is the in-memory fixture plus a WAL-backed bank in dir.
type durableFixture struct {
	bank  *Bank
	store *durable.Store
	id    *pki.Identity
	alice *pki.Identity
	bob   *pki.Identity
}

func newDurableFixture(t *testing.T, dir string, snapshotEvery int) *durableFixture {
	t.Helper()
	ca, err := pki.NewDeterministicCA("/CN=CA", [32]byte{1})
	if err != nil {
		t.Fatal(err)
	}
	bankID, err := ca.IssueDeterministic("/CN=Bank", [32]byte{2})
	if err != nil {
		t.Fatal(err)
	}
	alice, err := ca.IssueDeterministic("/O=Grid/CN=Alice", [32]byte{3})
	if err != nil {
		t.Fatal(err)
	}
	bob, err := ca.IssueDeterministic("/O=Grid/CN=Bob", [32]byte{4})
	if err != nil {
		t.Fatal(err)
	}
	f := &durableFixture{id: bankID, alice: alice, bob: bob}
	f.reopen(t, dir, snapshotEvery)
	return f
}

// reopen simulates a restart: a fresh Bank recovers from dir.
func (f *durableFixture) reopen(t *testing.T, dir string, snapshotEvery int) {
	t.Helper()
	st, err := durable.Open(dir, durable.Options{Sync: durable.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	b := New(f.id, sim.WallClock{})
	if _, err := b.AttachDurability(st, snapshotEvery); err != nil {
		t.Fatalf("AttachDurability: %v", err)
	}
	f.bank, f.store = b, st
}

func (f *durableFixture) close(t *testing.T) {
	t.Helper()
	if err := f.store.Close(); err != nil {
		t.Fatal(err)
	}
}

func (f *durableFixture) transfer(t *testing.T, from, to AccountID, amount Amount, nonce string) Receipt {
	t.Helper()
	signer := f.alice
	if from == "bob" {
		signer = f.bob
	}
	req := TransferRequest{From: from, To: to, Amount: amount, Nonce: nonce}
	req.Sig = signer.Sign(req.SigningBytes())
	r, err := f.bank.Transfer(req)
	if err != nil {
		t.Fatalf("transfer %s: %v", nonce, err)
	}
	return r
}

func TestDurableBankRecoversEverything(t *testing.T) {
	dir := t.TempDir()
	f := newDurableFixture(t, dir, 0)
	if _, err := f.bank.CreateAccount("alice", f.alice.Public()); err != nil {
		t.Fatal(err)
	}
	if _, err := f.bank.CreateAccount("bob", f.bob.Public()); err != nil {
		t.Fatal(err)
	}
	if _, err := f.bank.CreateSubAccount("alice", "sub", f.alice.Public()); err != nil {
		t.Fatal(err)
	}
	if err := f.bank.Deposit("alice", 100*Credit, "grant"); err != nil {
		t.Fatal(err)
	}
	receipt := f.transfer(t, "alice", "bob", 30*Credit, "n1")
	if err := f.bank.MoveInternal(f.alice, "alice", "alice/sub", 5*Credit, EntryCharge, "park"); err != nil {
		t.Fatal(err)
	}
	wantHistory := f.bank.History("alice")
	f.close(t)

	f.reopen(t, dir, 0)
	defer f.close(t)

	for id, want := range map[AccountID]Amount{
		"alice": 65 * Credit, "bob": 30 * Credit, "alice/sub": 5 * Credit,
	} {
		got, err := f.bank.Balance(id)
		if err != nil || got != want {
			t.Errorf("balance %q = %v, %v; want %v", id, got, err, want)
		}
	}
	if total := f.bank.TotalMoney(); total != 100*Credit {
		t.Errorf("TotalMoney = %v, want 100", total)
	}
	// Ledger history for alice matches the pre-crash ledger exactly.
	gotHistory := f.bank.History("alice")
	if len(gotHistory) != len(wantHistory) {
		t.Fatalf("history has %d entries, want %d", len(gotHistory), len(wantHistory))
	}
	for i := range wantHistory {
		w, g := wantHistory[i], gotHistory[i]
		// Compare At with Equal: the recovered time has no monotonic reading.
		if g.Seq != w.Seq || g.Kind != w.Kind || g.From != w.From || g.To != w.To ||
			g.Amount != w.Amount || g.Memo != w.Memo || !g.At.Equal(w.At) {
			t.Errorf("history[%d] = %+v, want %+v", i, g, w)
		}
	}

	// Accounts keep their owner keys: a post-restart transfer still verifies.
	f.transfer(t, "bob", "alice", 10*Credit, "n2")

	// Idempotent replay survives the restart: the identical signed request
	// returns the original receipt (same bank signature) without moving money.
	req := TransferRequest{From: "alice", To: "bob", Amount: 30 * Credit, Nonce: "n1"}
	req.Sig = f.alice.Sign(req.SigningBytes())
	again, err := f.bank.Transfer(req)
	if err != nil {
		t.Fatalf("replay after restart: %v", err)
	}
	if !bytes.Equal(again.BankSig, receipt.BankSig) {
		t.Errorf("replayed receipt signature differs from the original")
	}
	if got, _ := f.bank.Balance("bob"); got != 20*Credit {
		t.Errorf("replay moved money: bob = %v", got)
	}
}

// TestDurableBankRefusedSelfMovesRecover: a live bank that refused a
// self-transfer and a self-move and the bank recovered from its log agree —
// the refusals wrote no record, so there is nothing for replay to disagree on.
func TestDurableBankRefusedSelfMovesRecover(t *testing.T) {
	dir := t.TempDir()
	f := newDurableFixture(t, dir, 0)
	for id, owner := range map[AccountID]*pki.Identity{"alice": f.alice, "bob": f.bob} {
		if _, err := f.bank.CreateAccount(id, owner.Public()); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.bank.Deposit("alice", 10*Credit, "grant"); err != nil {
		t.Fatal(err)
	}
	self := TransferRequest{From: "alice", To: "alice", Amount: 4 * Credit, Nonce: "n-self"}
	self.Sig = f.alice.Sign(self.SigningBytes())
	if _, err := f.bank.Transfer(self); !errors.Is(err, ErrSameAccount) {
		t.Fatalf("self-transfer: %v, want ErrSameAccount", err)
	}
	if err := f.bank.MoveInternal(f.alice, "alice", "alice", 3*Credit, EntryCharge, "self"); !errors.Is(err, ErrSameAccount) {
		t.Fatalf("self-move: %v, want ErrSameAccount", err)
	}
	f.transfer(t, "alice", "bob", 2*Credit, "n-self") // the nonce was not spent
	live := map[AccountID]Amount{}
	for _, id := range []AccountID{"alice", "bob"} {
		live[id], _ = f.bank.Balance(id)
	}
	if live["alice"] != 8*Credit || f.bank.TotalMoney() != 10*Credit || f.bank.Drift() != 0 {
		t.Fatalf("live bank: alice %v, total %v, drift %v", live["alice"], f.bank.TotalMoney(), f.bank.Drift())
	}
	f.close(t)

	f.reopen(t, dir, 0)
	defer f.close(t)
	for id, want := range live {
		if got, err := f.bank.Balance(id); err != nil || got != want {
			t.Errorf("%s recovered with %v (%v), held %v before the restart", id, got, err, want)
		}
	}
	if f.bank.TotalMoney() != 10*Credit || f.bank.Drift() != 0 {
		t.Errorf("recovered bank: total %v, drift %v", f.bank.TotalMoney(), f.bank.Drift())
	}
}

func TestDurableBankSnapshotThreshold(t *testing.T) {
	dir := t.TempDir()
	f := newDurableFixture(t, dir, 8) // snapshot every 8 records
	if _, err := f.bank.CreateAccount("alice", f.alice.Public()); err != nil {
		t.Fatal(err)
	}
	if err := f.bank.Deposit("alice", 1000*Credit, "seed"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.bank.CreateAccount("bob", f.bob.Public()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		f.transfer(t, "alice", "bob", Credit, nonceN(i))
	}
	f.close(t)

	f.reopen(t, dir, 8)
	defer f.close(t)
	if got, _ := f.bank.Balance("bob"); got != 40*Credit {
		t.Errorf("bob = %v after snapshot-heavy recovery, want 40", got)
	}
	if total := f.bank.TotalMoney(); total != 1000*Credit {
		t.Errorf("TotalMoney = %v, want 1000", total)
	}
	// Nonces must have survived via the snapshot path too.
	req := TransferRequest{From: "alice", To: "bob", Amount: 2 * Credit, Nonce: nonceN(0)}
	req.Sig = f.alice.Sign(req.SigningBytes())
	if _, err := f.bank.Transfer(req); !errors.Is(err, ErrNonceReused) {
		t.Errorf("nonce forgotten across snapshot: %v", err)
	}
}

func nonceN(i int) string {
	return string(rune('a'+i/26)) + string(rune('a'+i%26))
}

func TestDurableBankTwoPhaseRecovery(t *testing.T) {
	dir := t.TempDir()
	f := newDurableFixture(t, dir, 0)
	if _, err := f.bank.CreateAccount("alice", f.alice.Public()); err != nil {
		t.Fatal(err)
	}
	if _, err := f.bank.CreateAccount("bob", f.bob.Public()); err != nil {
		t.Fatal(err)
	}
	if err := f.bank.Deposit("alice", 100*Credit, "seed"); err != nil {
		t.Fatal(err)
	}

	// tx-a: prepared only (in doubt, decision will be abort).
	if err := f.bank.PrepareDebit(f.alice, "alice", "bob", 10*Credit, "tx-a"); err != nil {
		t.Fatal(err)
	}
	// tx-b: prepared and committed (decision recorded, credit pending).
	if err := f.bank.PrepareDebit(f.alice, "alice", "bob", 20*Credit, "tx-b"); err != nil {
		t.Fatal(err)
	}
	if err := f.bank.MarkCommitted("tx-b"); err != nil {
		t.Fatal(err)
	}
	// tx-c: full cycle completed before the crash.
	if err := f.bank.PrepareDebit(f.alice, "alice", "bob", 5*Credit, "tx-c"); err != nil {
		t.Fatal(err)
	}
	if err := f.bank.MarkCommitted("tx-c"); err != nil {
		t.Fatal(err)
	}
	if err := f.bank.CreditPrepared("bob", 5*Credit, "tx-c", "landed"); err != nil {
		t.Fatal(err)
	}
	if err := f.bank.FinalizeDebit("tx-c"); err != nil {
		t.Fatal(err)
	}
	f.close(t)

	f.reopen(t, dir, 0)
	defer f.close(t)

	holds := f.bank.Holds()
	if len(holds) != 2 {
		t.Fatalf("recovered %d holds, want 2: %+v", len(holds), holds)
	}
	byTX := map[string]Hold{}
	for _, h := range holds {
		byTX[h.TX] = h
	}
	if h := byTX["tx-a"]; h.Committed || h.Amount != 10*Credit {
		t.Errorf("tx-a recovered wrong: %+v", h)
	}
	if h := byTX["tx-b"]; !h.Committed || h.Amount != 20*Credit {
		t.Errorf("tx-b lost its commit decision: %+v", h)
	}
	if f.bank.CreditRecorded("tx-b") {
		t.Error("tx-b credit should not have landed yet")
	}
	if !f.bank.CreditRecorded("tx-c") {
		t.Error("tx-c credit record lost")
	}

	// Resolve exactly as a recovering coordinator would: abort the
	// uncommitted hold, complete the committed one.
	if err := f.bank.AbortDebit("tx-a"); err != nil {
		t.Fatal(err)
	}
	if err := f.bank.CreditPrepared("bob", 20*Credit, "tx-b", "recovered"); err != nil {
		t.Fatal(err)
	}
	if err := f.bank.FinalizeDebit("tx-b"); err != nil {
		t.Fatal(err)
	}
	if got, _ := f.bank.Balance("alice"); got != 75*Credit {
		t.Errorf("alice = %v, want 75", got)
	}
	if got, _ := f.bank.Balance("bob"); got != 25*Credit {
		t.Errorf("bob = %v, want 25", got)
	}
	if total := f.bank.TotalMoney(); total != 100*Credit {
		t.Errorf("money not conserved: %v", total)
	}
	if held := f.bank.HeldTotal(); held != 0 {
		t.Errorf("orphaned holds worth %v", held)
	}
}

func TestDurableBankCreditReplayedOnceAfterRestart(t *testing.T) {
	dir := t.TempDir()
	f := newDurableFixture(t, dir, 0)
	if _, err := f.bank.CreateAccount("bob", f.bob.Public()); err != nil {
		t.Fatal(err)
	}
	if err := f.bank.CreditPrepared("bob", 7*Credit, "tx-x", "inbound"); err != nil {
		t.Fatal(err)
	}
	f.close(t)

	f.reopen(t, dir, 0)
	defer f.close(t)
	// A recovering coordinator replays the credit; it must dedupe.
	if err := f.bank.CreditPrepared("bob", 7*Credit, "tx-x", "inbound"); err != nil {
		t.Fatal(err)
	}
	if got, _ := f.bank.Balance("bob"); got != 7*Credit {
		t.Errorf("credit applied twice: bob = %v", got)
	}
}

func TestAttachDurabilityRejectsUsedBank(t *testing.T) {
	ca, err := pki.NewDeterministicCA("/CN=CA", [32]byte{1})
	if err != nil {
		t.Fatal(err)
	}
	id, err := ca.IssueDeterministic("/CN=Bank", [32]byte{2})
	if err != nil {
		t.Fatal(err)
	}
	b := New(id, sim.WallClock{})
	if _, err := b.CreateAccount("a", id.Public()); err != nil {
		t.Fatal(err)
	}
	st, err := durable.Open(t.TempDir(), durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := b.AttachDurability(st, 0); err == nil {
		t.Fatal("attach to a non-empty bank must fail")
	}
}

func TestSnapshotEncodeRestoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	f := newDurableFixture(t, dir, 0)
	defer f.close(t)
	if _, err := f.bank.CreateAccount("alice", f.alice.Public()); err != nil {
		t.Fatal(err)
	}
	if _, err := f.bank.CreateAccount("bob", f.bob.Public()); err != nil {
		t.Fatal(err)
	}
	if err := f.bank.Deposit("alice", 50*Credit, "seed"); err != nil {
		t.Fatal(err)
	}
	f.transfer(t, "alice", "bob", 10*Credit, "rt")
	if err := f.bank.PrepareDebit(f.alice, "alice", "bob", 5*Credit, "tx-rt"); err != nil {
		t.Fatal(err)
	}

	f.bank.mu.Lock()
	snap := f.bank.encodeSnapshot()
	f.bank.mu.Unlock()

	restored := New(f.id, sim.WallClock{})
	if err := restored.restoreSnapshot(snap); err != nil {
		t.Fatalf("restoreSnapshot: %v", err)
	}
	restored.mu.Lock()
	snap2 := restored.encodeSnapshot()
	restored.mu.Unlock()
	if !bytes.Equal(snap, snap2) {
		t.Error("snapshot round-trip is not byte-identical")
	}
}

// TestStageEncodesOnlyWithAJournal: an in-memory bank never builds a WAL
// record, and a journaled one stages exactly the bytes its encoder returns.
func TestStageEncodesOnlyWithAJournal(t *testing.T) {
	ca, err := pki.NewDeterministicCA("/CN=CA", [32]byte{1})
	if err != nil {
		t.Fatal(err)
	}
	id, err := ca.IssueDeterministic("/CN=Bank", [32]byte{2})
	if err != nil {
		t.Fatal(err)
	}
	mem := New(id, sim.WallClock{})
	if wait := mem.stage(func() []byte { t.Error("in-memory bank encoded a WAL record"); return nil }); wait != nil {
		t.Error("in-memory bank returned a durability wait")
	}

	dir := t.TempDir()
	f := newDurableFixture(t, dir, 0)
	rec := encTx(walForget, "tx-1")
	f.bank.mu.Lock()
	wait := f.bank.stage(func() []byte { return rec })
	f.bank.mu.Unlock()
	if err := commitWait(wait); err != nil {
		t.Fatal(err)
	}
	f.close(t)
	st, err := durable.Open(dir, durable.Options{Sync: durable.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var journaled [][]byte
	if _, err := st.Recover(func([]byte) error { return nil }, func(r []byte) error {
		journaled = append(journaled, append([]byte(nil), r...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(journaled) != 1 || string(journaled[0]) != string(rec) {
		t.Errorf("journal holds %q, want exactly %q", journaled, rec)
	}
}
