package bank

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
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
	f := &durableFixture{sync: durable.SyncNone, id: bankID, alice: alice, bob: bob}
	f.reopen(t, dir, snapshotEvery)
	return f
}

// reopen simulates a restart: a fresh Bank recovers from dir.
func (f *durableFixture) reopen(t *testing.T, dir string, snapshotEvery int) {
	t.Helper()
	st, err := durable.Open(dir, durable.Options{Sync: f.sync})
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

// TestWALSignatureIsTheReceipts: the transfer record in the log carries the
// signature the client was handed and the bank stored — not that of a receipt
// signed for an admission that lost the race to commit — and a reopened bank
// answers every replay with it. Two writers send every request twice, the
// copies at once.
func TestWALSignatureIsTheReceipts(t *testing.T) {
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
	logged := map[string][]byte{}
	if _, err := st.Recover(func([]byte) error { return nil }, func(rec []byte) error {
		d := walDec{b: rec}
		if d.kind() != walTransfer {
			return nil
		}
		d.str() // from
		d.str() // to
		d.i64() // amount
		nonce := d.str()
		d.time()
		sig := d.bytes()
		if _, dup := logged[nonce]; dup {
			t.Errorf("%s: two transfer records", nonce)
		}
		logged[nonce] = sig
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
	for nonce, r := range returned {
		if !bytes.Equal(logged[nonce], r.BankSig) {
			t.Fatalf("%s: the log carries another signature than the receipt's", nonce)
		}
	}

	f.reopen(t, dir, 0)
	defer f.close(t)
	for _, req := range reqs {
		again, err := f.bank.Transfer(req)
		if err != nil {
			t.Fatalf("replay of %s after reopen: %v", req.Nonce, err)
		}
		if r := returned[req.Nonce]; !bytes.Equal(again.BankSig, r.BankSig) || !again.At.Equal(r.At) {
			t.Fatalf("%s after reopen: %+v, first answered %+v", req.Nonce, again, r)
		}
	}
	if a, _ := f.bank.Balance("alice"); a != 100*Credit-each*Credit+each*2*Credit {
		t.Errorf("alice = %v after the replays", a)
	}
}

// TestRetiredFormatsFailRecovery: a data dir written while the bank still had
// two-phase transfers — a WAL record of kind 5–10, or a version-1 snapshot —
// makes AttachDurability fail loudly rather than come up without the money a
// hold carried. The bytes are written by hand: their encoders are gone.
func TestRetiredFormatsFailRecovery(t *testing.T) {
	str := func(s string) []byte { return append(binary.AppendUvarint(nil, uint64(len(s))), s...) }
	num := func(v int64) []byte { return binary.AppendVarint(nil, v) }
	rec := func(kind byte, fields ...[]byte) []byte { return append([]byte{kind}, bytes.Join(fields, nil)...) }
	for _, c := range []struct {
		name      string
		wal, snap []byte
		want      string
	}{
		{name: "prepare", wal: rec(5, str("tx"), str("alice"), str("bob"), num(int64(Credit)), num(0), []byte{1}), want: "unknown wal record kind 5"},
		{name: "commit", wal: rec(6, str("tx")), want: "unknown wal record kind 6"},
		{name: "credit", wal: rec(7, str("tx"), str("bob"), num(int64(Credit)), str("2pc"), num(0)), want: "unknown wal record kind 7"},
		{name: "finalize", wal: rec(8, str("tx")), want: "unknown wal record kind 8"},
		{name: "abort", wal: rec(9, str("tx"), num(0)), want: "unknown wal record kind 9"},
		{name: "forget", wal: rec(10, str("tx")), want: "unknown wal record kind 10"},
		// Version 1, seq 0, then six empty sections: accounts, nonces,
		// receipts, holds, the credited set, the ledger.
		{name: "snapshot-v1", snap: []byte{1, 0, 0, 0, 0, 0, 0, 0}, want: "unknown snapshot version 1"},
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
	rec := encDeposit("alice", Credit, "direct", time.Unix(0, 1))
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
