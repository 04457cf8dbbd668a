package bank

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"os"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tycoongrid/internal/durable"
	"tycoongrid/internal/fault/failpoint"
	"tycoongrid/internal/pki"
	"tycoongrid/internal/sim"
)

// durableFixture is the in-memory fixture plus a WAL-backed bank in dir.
type durableFixture struct {
	bank  *Bank
	store *durable.Store
	sync  durable.SyncPolicy
	id    *pki.Identity
	alice *pki.Identity
	bob   *pki.Identity
}

func newDurableFixture(t *testing.T, dir string, snapshotEvery int, opts ...Option) *durableFixture {
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
	f := &durableFixture{sync: durable.SyncNone, id: bankID, alice: alice, bob: bob}
	f.reopen(t, dir, snapshotEvery, opts...)
	return f
}

// reopen simulates a restart: a fresh Bank made with opts recovers from dir.
func (f *durableFixture) reopen(t *testing.T, dir string, snapshotEvery int, opts ...Option) {
	t.Helper()
	st, err := durable.Open(dir, durable.Options{Sync: f.sync})
	if err != nil {
		t.Fatal(err)
	}
	b := New(f.id, sim.WallClock{}, opts...)
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
	if gotHistory := f.bank.History("alice"); !reflect.DeepEqual(gotHistory, wantHistory) {
		t.Errorf("history = %+v, want %+v", gotHistory, wantHistory)
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

// TestReplayWaitsForTheOriginalsSync: under -fsync always, a replayed
// transfer answers with the stored receipt only once the original's record is
// durable. The original is held inside its fsync by a fail point; the replay
// must still be waiting when the fsync is let go, else a crash at that instant
// leaves the client a bank-signed receipt for a transfer recovery does not
// contain. The replay is sent once the original's record is staged, and —
// since both verify and sign outside the ledger lock — together with the
// original, so that whichever commits second is the replay.
func TestReplayWaitsForTheOriginalsSync(t *testing.T) {
	for _, racing := range []bool{false, true} {
		t.Run(fmt.Sprintf("racing=%v", racing), func(t *testing.T) {
			dir := t.TempDir()
			f := newDurableFixture(t, dir, 0)
			f.close(t)
			f.sync = durable.SyncAlways
			f.reopen(t, dir, 0)
			defer f.close(t)
			for id, owner := range map[AccountID]*pki.Identity{"alice": f.alice, "bob": f.bob} {
				if _, err := f.bank.CreateAccount(id, owner.Public()); err != nil {
					t.Fatal(err)
				}
			}
			if err := f.bank.Deposit("alice", 10*Credit, "grant"); err != nil {
				t.Fatal(err)
			}

			entered, release := make(chan struct{}), make(chan struct{})
			var held atomic.Bool
			failpoint.SetCrash(func(string) {
				if held.CompareAndSwap(false, true) {
					close(entered)
					<-release
				}
			})
			failpoint.Arm("durable.wal.sync", 1, 1)
			defer func() {
				failpoint.Disarm("durable.wal.sync")
				failpoint.SetCrash(nil)
			}()

			type result struct {
				r   Receipt
				err error
			}
			req := TransferRequest{From: "alice", To: "bob", Amount: 3 * Credit, Nonce: "n-held"}
			req.Sig = f.alice.Sign(req.SigningBytes())
			transfer := func(out chan<- result) {
				r, err := f.bank.Transfer(req)
				out <- result{r, err}
			}
			first, second := make(chan result, 1), make(chan result, 1)
			go transfer(first)
			if racing {
				go transfer(second)
			}
			<-entered // the first committed's record is staged, its fsync held
			if !racing {
				go transfer(second)
			}
			select {
			case r := <-first:
				close(release)
				t.Fatalf("a transfer answered (err %v) while the record was not yet synced", r.err)
			case r := <-second:
				close(release)
				t.Fatalf("a transfer answered (err %v) while the record was not yet synced", r.err)
			case <-time.After(100 * time.Millisecond):
			}
			close(release)
			o, r := <-first, <-second
			if o.err != nil || r.err != nil {
				t.Fatalf("first: %v, second: %v", o.err, r.err)
			}
			if !reflect.DeepEqual(o.r, r.r) {
				t.Errorf("the two answers differ:\n %+v\n %+v", o.r, r.r)
			}
			if got, _ := f.bank.Balance("bob"); got != 3*Credit {
				t.Errorf("bob = %v, want 3", got)
			}
		})
	}
}

// TestRacedReplaysAnswerOneReceiptAcrossReopen: a request sent twice at once
// answers one receipt, the one the bank answers every later replay with; the
// log holds one transfer record for it; and a reopened bank answers every
// replay with that receipt, byte for byte. Two writers send every request
// twice, the copies at once.
func TestRacedReplaysAnswerOneReceiptAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	f := newDurableFixture(t, dir, 0)
	for id, owner := range map[AccountID]*pki.Identity{"alice": f.alice, "bob": f.bob} {
		if _, err := f.bank.CreateAccount(id, owner.Public()); err != nil {
			t.Fatal(err)
		}
		if err := f.bank.Deposit(id, 100*Credit, "grant"); err != nil {
			t.Fatal(err)
		}
	}
	const each = 20
	var reqs []TransferRequest
	for i := 0; i < each; i++ {
		reqs = append(reqs, signedTransfer(f.alice, "alice", "bob", Credit, fmt.Sprintf("a-%d", i)),
			signedTransfer(f.bob, "bob", "alice", 2*Credit, fmt.Sprintf("b-%d", i)))
	}
	returned := map[string]Receipt{}
	for _, req := range reqs {
		for _, got := range race(f.bank, req, req) {
			if got.err != nil {
				t.Fatalf("%s: %v", req.Nonce, got.err)
			}
			if prev, ok := returned[req.Nonce]; ok && !reflect.DeepEqual(prev, got.r) {
				t.Fatalf("%s answered two receipts:\n %+v\n %+v", req.Nonce, prev, got.r)
			}
			returned[req.Nonce] = got.r
		}
	}
	for nonce, r := range returned {
		if stored, _ := storedReceipt(f.bank, nonce); !reflect.DeepEqual(stored, r) {
			t.Fatalf("%s: returned %+v, stored %+v", nonce, r, stored)
		}
	}
	f.close(t)

	st, err := durable.Open(dir, durable.Options{Sync: durable.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	logged := map[string]bool{}
	if _, err := st.Recover(func([]byte) error { return nil }, func(rec []byte) error {
		d := walDec{b: rec}
		if d.kind() != walTransfer {
			return nil
		}
		d.str() // from
		d.str() // to
		d.i64() // amount
		nonce := d.str()
		if logged[nonce] {
			t.Errorf("%s: two transfer records", nonce)
		}
		logged[nonce] = true
		return d.err
	}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if len(logged) != len(returned) {
		t.Fatalf("%d transfer records for %d transfers", len(logged), len(returned))
	}

	f.reopen(t, dir, 0)
	defer f.close(t)
	for _, req := range reqs {
		again, err := f.bank.Transfer(req)
		if err != nil {
			t.Fatalf("replay of %s after reopen: %v", req.Nonce, err)
		}
		if r := returned[req.Nonce]; !reflect.DeepEqual(again, r) {
			t.Fatalf("%s after reopen: %+v, first answered %+v", req.Nonce, again, r)
		}
	}
	if a, _ := f.bank.Balance("alice"); a != 100*Credit-each*Credit+each*2*Credit {
		t.Errorf("alice = %v after the replays", a)
	}
}

// TestRetiredFormatsFailRecovery: a data dir written in a retired format — a
// transfer record of kind 3, which carried the receipt's signature, or a
// version-2 snapshot, which carried every receipt's; a WAL record of kind
// 5–10 or a version-1 snapshot, from while the bank still had two-phase
// transfers — makes AttachDurability fail loudly rather than come up without
// the money a record moved. The bytes are written by hand: their encoders
// are gone.
func TestRetiredFormatsFailRecovery(t *testing.T) {
	str := func(s string) []byte { return append(binary.AppendUvarint(nil, uint64(len(s))), s...) }
	num := func(v int64) []byte { return binary.AppendVarint(nil, v) }
	rec := func(kind byte, fields ...[]byte) []byte { return append([]byte{kind}, bytes.Join(fields, nil)...) }
	for _, c := range []struct {
		name      string
		wal, snap []byte
		want      string
	}{
		{name: "transfer-with-signature", wal: rec(3, str("alice"), str("bob"), num(int64(Credit)), str("n-1"), num(0), str(strings.Repeat("s", 64))), want: "unknown wal record kind 3"},
		{name: "prepare", wal: rec(5, str("tx"), str("alice"), str("bob"), num(int64(Credit)), num(0), []byte{1}), want: "unknown wal record kind 5"},
		{name: "commit", wal: rec(6, str("tx")), want: "unknown wal record kind 6"},
		{name: "credit", wal: rec(7, str("tx"), str("bob"), num(int64(Credit)), str("2pc"), num(0)), want: "unknown wal record kind 7"},
		{name: "finalize", wal: rec(8, str("tx")), want: "unknown wal record kind 8"},
		{name: "abort", wal: rec(9, str("tx"), num(0)), want: "unknown wal record kind 9"},
		{name: "forget", wal: rec(10, str("tx")), want: "unknown wal record kind 10"},
		// Version 1, seq 0, then six empty sections: accounts, nonces,
		// receipts, holds, the credited set, the ledger.
		{name: "snapshot-v1", snap: []byte{1, 0, 0, 0, 0, 0, 0, 0}, want: "unknown snapshot version 1"},
		// Version 2, seq 0, then three empty sections: accounts, receipts
		// (each with its signature), the ledger.
		{name: "snapshot-v2", snap: []byte{2, 0, 0, 0, 0}, want: "unknown snapshot version 2"},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			st, err := durable.Open(dir, durable.Options{Sync: durable.SyncNone})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := st.Recover(nil, nil); err != nil {
				t.Fatal(err)
			}
			if c.snap != nil {
				err = st.Snapshot(c.snap)
			} else {
				err = st.Append(c.wal)
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			st, err = durable.Open(dir, durable.Options{Sync: durable.SyncNone})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			_, err = New(nil, sim.WallClock{}).AttachDurability(st, 0)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("AttachDurability = %v, want an error containing %q", err, c.want)
			}
		})
	}
}

// TestRecoveryRefusesMalformedAccounts: an account-creation record or a
// snapshot entry whose owner key is not 32 bytes — an account no signature
// could move money out of — or whose parent the bank does not hold, or whose
// id does not extend its parent's (so a snapshot, sorted by id, would list it
// before its parent), makes AttachDurability fail, naming the account,
// instead of coming up with an account that can never pay or a sub-account
// that lost its parent.
func TestRecoveryRefusesMalformedAccounts(t *testing.T) {
	str := func(s string) []byte { return append(binary.AppendUvarint(nil, uint64(len(s))), s...) }
	num := func(v int64) []byte { return binary.AppendVarint(nil, v) }
	key := bytes.Repeat([]byte{7}, 32)
	// An account as a create-account record carries it, and as a snapshot's
	// account section does: the same fields with the balance before the time.
	record := func(id string, owner []byte, parent string) []byte {
		return bytes.Join([][]byte{{walCreateAccount}, str(id), str(string(owner)), str(parent), num(0)}, nil)
	}
	snapshot := func(id string, owner []byte, parent string) []byte {
		// Version, seq 0, one account, then empty receipt and ledger sections.
		return bytes.Join([][]byte{{snapshotVersion, 0, 1}, str(id), str(string(owner)), str(parent), num(0), num(0), {0, 0}}, nil)
	}
	for _, c := range []struct {
		name      string
		wal, snap []byte
		want      string
	}{
		{name: "wal/short-key", wal: record("carol", key[:5], ""), want: `account "carol": owner key has 5 bytes`},
		{name: "wal/missing-parent", wal: record("dave/job-1", key, "dave"), want: `account "dave/job-1": no parent "dave"`},
		{name: "wal/not-under-parent", wal: record("0000", key, "alice"), want: `account "0000": not a sub-account id of parent "alice"`},
		{name: "snapshot/short-key", snap: snapshot("carol", key[:31], ""), want: `account "carol": owner key has 31 bytes`},
		{name: "snapshot/missing-parent", snap: snapshot("dave/job-1", key, "dave"), want: `account "dave/job-1": no parent "dave"`},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			st, err := durable.Open(dir, durable.Options{Sync: durable.SyncNone})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := st.Recover(nil, nil); err != nil {
				t.Fatal(err)
			}
			if c.snap != nil {
				err = st.Snapshot(c.snap)
			} else {
				err = st.Append(c.wal)
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			st, err = durable.Open(dir, durable.Options{Sync: durable.SyncNone})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			_, err = New(nil, sim.WallClock{}).AttachDurability(st, 0)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("AttachDurability = %v, want an error containing %q", err, c.want)
			}
		})
	}
}

func nonceN(i int) string {
	return string(rune('a'+i/26)) + string(rune('a'+i%26))
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
	if err := f.bank.MoveInternal(f.bob, "bob", "alice", 5*Credit, EntryRefund, "back"); err != nil {
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
	rec := encDeposit("alice", Credit, "direct", 1)
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

// TestRecoveredBankEqualsTheLiveOne: a durable bank on the wall clock that
// made transfers, moves and deposits, closed and reopened, holds the same
// account (Lookup) and history for every account and the same receipt for
// every nonce, compared with reflect.DeepEqual, and answers a replayed
// request with the receipt first issued, byte for byte. A time stamped live
// and the same time read back from the log or a snapshot are one value:
// whole nanoseconds in UTC, with no monotonic reading.
func TestRecoveredBankEqualsTheLiveOne(t *testing.T) {
	for _, every := range []int{0, 7} { // the log alone; snapshots and a log tail
		t.Run(fmt.Sprintf("snapshot-every=%d", every), func(t *testing.T) {
			dir := t.TempDir()
			f := newDurableFixture(t, dir, every)
			for id, owner := range map[AccountID]*pki.Identity{"alice": f.alice, "bob": f.bob} {
				if _, err := f.bank.CreateAccount(id, owner.Public()); err != nil {
					t.Fatal(err)
				}
				if err := f.bank.Deposit(id, 50*Credit, "grant"); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := f.bank.CreateSubAccount("alice", "job", f.alice.Public()); err != nil {
				t.Fatal(err)
			}
			first := signedTransfer(f.alice, "alice", "bob", 3*Credit, "t-0")
			original, err := f.bank.Transfer(first)
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i < 12; i++ {
				f.transfer(t, "bob", "alice", Credit, fmt.Sprintf("t-%d", i))
				if err := f.bank.MoveInternal(f.alice, "alice", "alice/job", Credit, EntryCharge, fmt.Sprintf("cpu %d", i)); err != nil {
					t.Fatal(err)
				}
				if i%4 == 0 {
					if err := f.bank.Deposit("bob", Credit, "top-up"); err != nil {
						t.Fatal(err)
					}
				}
			}
			books := func() (map[AccountID]Account, map[AccountID][]Entry, map[string]Receipt) {
				accounts, histories, receipts := map[AccountID]Account{}, map[AccountID][]Entry{}, map[string]Receipt{}
				for _, id := range f.bank.Accounts() {
					a, err := f.bank.Lookup(id)
					if err != nil {
						t.Fatal(err)
					}
					accounts[id], histories[id] = a, f.bank.History(id)
				}
				f.bank.mu.Lock()
				var nonces []string
				for nonce := range f.bank.receipts {
					nonces = append(nonces, nonce)
				}
				f.bank.mu.Unlock()
				for _, nonce := range nonces {
					receipts[nonce], _ = storedReceipt(f.bank, nonce)
				}
				return accounts, histories, receipts
			}
			liveAccounts, liveHistories, liveReceipts := books()
			if len(liveReceipts) != 12 || len(liveHistories["alice/job"]) != 11 {
				t.Fatalf("%d receipts and %d job entries before the restart", len(liveReceipts), len(liveHistories["alice/job"]))
			}
			f.close(t)

			f.reopen(t, dir, every)
			defer f.close(t)
			gotAccounts, gotHistories, gotReceipts := books()
			if !reflect.DeepEqual(gotAccounts, liveAccounts) {
				t.Errorf("accounts after the restart:\n %+v\nbefore:\n %+v", gotAccounts, liveAccounts)
			}
			for id, want := range liveHistories {
				if got := gotHistories[id]; !reflect.DeepEqual(got, want) {
					t.Errorf("history of %s after the restart:\n %+v\nbefore:\n %+v", id, got, want)
				}
			}
			if !reflect.DeepEqual(gotReceipts, liveReceipts) {
				t.Errorf("receipts after the restart:\n %+v\nbefore:\n %+v", gotReceipts, liveReceipts)
			}
			again, err := f.bank.Transfer(first)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(again, original) {
				t.Errorf("replay after the restart answered\n %+v\nfirst issued\n %+v", again, original)
			}
		})
	}
}

// TestReplayAfterTrimAndRecovery: a durable bank whose ledger keeps 10
// lines, snapshotting every 7 records, makes 100 signed transfers between
// owner transfer moves that carry a memo. Every request replayed at once,
// again once the trim has dropped its line, and again after the store is closed
// and the bank recovered answers the receipt first issued byte for byte, so a
// receipt's facts survive its line, and a restored snapshot's receipts, which
// no line names, answer too. History is the same live and recovered: a signed
// transfer's entry reads Memo "" (its line's memo slot holds the nonce), a
// move's keeps its memo.
func TestReplayAfterTrimAndRecovery(t *testing.T) {
	const transfers, retention, every = 100, 10, 7
	dir := t.TempDir()
	f := newDurableFixture(t, dir, every, WithLedgerRetention(retention))
	signers := map[AccountID]*pki.Identity{"alice": f.alice, "bob": f.bob}
	for _, id := range []AccountID{"alice", "bob"} {
		if _, err := f.bank.CreateAccount(id, signers[id].Public()); err != nil {
			t.Fatal(err)
		}
		if err := f.bank.Deposit(id, 1000*Credit, "grant"); err != nil {
			t.Fatal(err)
		}
	}
	reqs, first := make([]TransferRequest, transfers), make([]Receipt, transfers)
	for i := range reqs {
		from, to := AccountID("alice"), AccountID("bob")
		if i%2 == 1 {
			from, to = to, from
		}
		reqs[i] = signedTransfer(signers[from], from, to, Credit, fmt.Sprintf("trim-%03d", i))
		var err error
		if first[i], err = f.bank.Transfer(reqs[i]); err != nil {
			t.Fatal(err)
		}
		if again, err := f.bank.Transfer(reqs[i]); err != nil || !reflect.DeepEqual(again, first[i]) {
			t.Fatalf("replay of %s while its line is live answered %+v (%v), want %+v", reqs[i].Nonce, again, err, first[i])
		}
		if i%3 == 0 {
			if err := f.bank.MoveInternal(signers[to], to, from, Credit, EntryTransfer, fmt.Sprintf("memo %d", i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	replayAll := func(when string) {
		t.Helper()
		for i, req := range reqs {
			got, err := f.bank.Transfer(req)
			if err != nil {
				t.Fatalf("%s: replay of %s: %v", when, req.Nonce, err)
			}
			if !reflect.DeepEqual(got, first[i]) {
				t.Errorf("%s: replay of %s answered\n %+v\nfirst issued\n %+v", when, req.Nonce, got, first[i])
			}
		}
	}
	kept := func() int {
		f.bank.mu.Lock()
		defer f.bank.mu.Unlock()
		return len(f.bank.kept)
	}
	histories := func() map[AccountID][]Entry {
		return map[AccountID][]Entry{"alice": f.bank.History("alice"), "bob": f.bank.History("bob")}
	}

	replayAll("live, after the trims")
	if n := kept(); n < transfers-2*retention {
		t.Fatalf("%d receipts' facts are kept apart from the ledger after the trims, want at least %d", n, transfers-2*retention)
	}
	live := histories()
	var signed, moves int
	for _, e := range live["alice"] {
		switch {
		case e.Kind != EntryTransfer:
		case e.Memo == "":
			signed++
		case strings.HasPrefix(e.Memo, "memo "):
			moves++
		default:
			t.Errorf("transfer entry %d reads memo %q, want \"\" or a move's", e.Seq, e.Memo)
		}
	}
	if signed == 0 || moves == 0 {
		t.Fatalf("alice's retained history holds %d signed transfers and %d moves, want both", signed, moves)
	}
	f.close(t)

	f.reopen(t, dir, every, WithLedgerRetention(retention))
	defer f.close(t)
	if n := kept(); n == 0 {
		t.Fatal("no receipt's facts are kept apart from the ledger after recovery")
	}
	if got := histories(); !reflect.DeepEqual(got, live) {
		t.Errorf("histories after recovery:\n %+v\nlive:\n %+v", got, live)
	}
	replayAll("recovered")
}

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/durable_format.golden from the current implementation")

// TestDurableFormatGolden pins the bytes on disk: the WAL records and the
// snapshot payload that a fixed script writes — two accounts and a
// sub-account, deposits, a signed transfer, a single move and a batch — on a
// simulated clock, hex-encoded one a line. A bank recovered from that log
// writes the same snapshot again. A change to how the bank keeps its state
// in memory must leave both byte-identical; regenerate only for an intended
// format change (and a new record kind or snapshot version), with
//
//	go test ./internal/bank -run DurableFormatGolden -update-golden
func TestDurableFormatGolden(t *testing.T) {
	dir := t.TempDir()
	ca, err := pki.NewDeterministicCA("/CN=CA", [32]byte{1})
	if err != nil {
		t.Fatal(err)
	}
	var ids [3]*pki.Identity
	for i, dn := range []pki.DN{"/CN=Bank", "/O=Grid/CN=Alice", "/O=Grid/CN=Bob"} {
		if ids[i], err = ca.IssueDeterministic(dn, [32]byte{byte(2 + i)}); err != nil {
			t.Fatal(err)
		}
	}
	bankID, alice, bob := ids[0], ids[1], ids[2]
	open := func() (*Bank, *durable.Store, *sim.Engine) {
		st, err := durable.Open(dir, durable.Options{Sync: durable.SyncNone})
		if err != nil {
			t.Fatal(err)
		}
		clock := sim.NewEngine()
		b := New(bankID, clock)
		if _, err := b.AttachDurability(st, 0); err != nil {
			t.Fatal(err)
		}
		return b, st, clock
	}
	snapshot := func(b *Bank) []byte {
		b.mu.Lock()
		defer b.mu.Unlock()
		return b.encodeSnapshot()
	}

	b, st, clock := open()
	step := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		clock.RunFor(1500 * time.Millisecond)
	}
	_, err = b.CreateAccount("alice", alice.Public())
	step(err)
	_, err = b.CreateAccount("bob", bob.Public())
	step(err)
	_, err = b.CreateSubAccount("alice", "job-1", alice.Public())
	step(err)
	step(b.Deposit("alice", 40*Credit, "grant"))
	step(b.Deposit("bob", 5*Credit+Credit/4, "grant"))
	_, err = b.Transfer(signedTransfer(alice, "alice", "bob", 7*Credit, "golden-1"))
	step(err)
	step(b.MoveInternal(alice, "alice", "alice/job-1", 12*Credit, EntryTransfer, "fund job-1"))
	step(b.MoveBatch(alice, []Move{
		{From: "alice/job-1", To: "alice", Amount: 3 * Credit, Memo: "cpu 1"},
		{From: "alice/job-1", To: "alice", Amount: Credit / 2, Memo: "cpu 2"},
	}, EntryCharge))
	step(b.MoveInternal(alice, "alice/job-1", "alice", 8*Credit+Credit/2, EntryRefund, "refund job-1"))
	snap := snapshot(b)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	var got strings.Builder
	got.WriteString("# WAL records, then the snapshot payload, of TestDurableFormatGolden's script; hex.\n")
	st, err = durable.Open(dir, durable.Options{Sync: durable.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Recover(func([]byte) error { return errors.New("the script took a snapshot") }, func(rec []byte) error {
		fmt.Fprintf(&got, "wal %x\n", rec)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&got, "snapshot %x\n", snap)

	recovered, st, _ := open()
	defer st.Close()
	if again := snapshot(recovered); !bytes.Equal(again, snap) {
		t.Errorf("the bank recovered from the log writes another snapshot:\n %x\nwant\n %x", again, snap)
	}

	const path = "testdata/durable_format.golden"
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("the script writes other bytes than %s:\n%s\nwant\n%s", path, got.String(), want)
	}
}
