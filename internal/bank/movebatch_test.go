package bank

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"tycoongrid/internal/durable"
	"tycoongrid/internal/metrics"
	"tycoongrid/internal/pki"
	"tycoongrid/internal/rng"
	"tycoongrid/internal/sim"
)

// stepClock moves one millisecond on at every reading, so twin banks stamp
// equal times exactly when they read the clock equally often.
type stepClock struct{ t time.Time }

func (c *stepClock) Now() time.Time {
	c.t = c.t.Add(time.Millisecond)
	return c.t
}

// batchAccounts are the accounts the MoveBatch tests move between: five of
// the broker's — one of them empty, one a hair below MaxAmount so that a
// credit to it overflows — and one owned by somebody else.
var batchAccounts = []AccountID{"broker", "broker/job-1", "broker/job-2", "broker/empty", "vault", "stranger"}

const vaultRoom = 1000 // what "vault" can still take before it overflows

// batchBank builds one twin: a bank on its own step clock with the batch
// accounts funded, durable in dir when dir is not empty.
func batchBank(t *testing.T, broker, stranger *pki.Identity, dir string, snapshotEvery int) (*Bank, *durable.Store) {
	t.Helper()
	ca, err := pki.NewDeterministicCA("/CN=CA", [32]byte{1})
	if err != nil {
		t.Fatal(err)
	}
	bankID, err := ca.IssueDeterministic("/CN=Bank", [32]byte{2})
	if err != nil {
		t.Fatal(err)
	}
	b := New(bankID, &stepClock{t: sim.Epoch})
	var st *durable.Store
	if dir != "" {
		if st, err = durable.Open(dir, durable.Options{Sync: durable.SyncAlways}); err != nil {
			t.Fatal(err)
		}
		if _, err := b.AttachDurability(st, snapshotEvery); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range batchAccounts {
		owner := broker
		if id == "stranger" {
			owner = stranger
		}
		if _, err := b.CreateAccount(id, owner.Public()); err != nil {
			t.Fatal(err)
		}
	}
	grants := []Amount{500 * Credit, 40 * Credit, 3 * Credit, 0, MaxAmount - vaultRoom, 10 * Credit}
	for i, id := range batchAccounts {
		if grants[i] == 0 {
			continue
		}
		if err := b.Deposit(id, grants[i], "grant"); err != nil {
			t.Fatal(err)
		}
	}
	return b, st
}

func batchIdentities(t *testing.T) (broker, stranger *pki.Identity) {
	t.Helper()
	ca, err := pki.NewDeterministicCA("/CN=CA", [32]byte{1})
	if err != nil {
		t.Fatal(err)
	}
	if broker, err = ca.IssueDeterministic("/O=Grid/CN=Broker", [32]byte{3}); err != nil {
		t.Fatal(err)
	}
	if stranger, err = ca.IssueDeterministic("/O=Grid/CN=Stranger", [32]byte{4}); err != nil {
		t.Fatal(err)
	}
	return broker, stranger
}

// randomLegs draws a batch; about one in three has a leg that must fail.
func randomLegs(src *rng.Source) []Move {
	legs := make([]Move, 1+src.Intn(12))
	for i := range legs {
		// Mostly the tick's shape: small charges from job escrow to one account.
		legs[i] = Move{From: batchAccounts[1+src.Intn(2)], To: "broker", Amount: Amount(1 + src.Intn(20_000)),
			Memo: fmt.Sprintf("cpu h%02d", src.Intn(4))}
		if from := src.Intn(3); src.Intn(4) == 0 {
			// Anywhere to anywhere else; a move to itself is one of the
			// refusals below.
			legs[i].From, legs[i].To = batchAccounts[from], batchAccounts[(from+1+src.Intn(3))%4]
		}
	}
	if src.Intn(3) == 0 {
		bad := &legs[src.Intn(len(legs))]
		switch src.Intn(7) {
		case 0:
			bad.From = "ghost"
		case 1:
			bad.To = "ghost"
		case 2:
			bad.From = "stranger" // not the broker's to move
		case 3:
			bad.From, bad.Amount = "broker/empty", 1
		case 4:
			bad.Amount = -Amount(src.Intn(2)) // zero or negative
		case 5:
			bad.To, bad.Amount = "vault", vaultRoom+1
		case 6:
			bad.To = bad.From
		}
	}
	return legs
}

// oneByOne is what MoveBatch replaces: the legs through MoveInternal in
// order, stopping at the first refusal. It returns how many legs went through.
func oneByOne(b *Bank, owner *pki.Identity, legs []Move, kind EntryKind) (int, error) {
	for i, mv := range legs {
		if err := b.MoveInternal(owner, mv.From, mv.To, mv.Amount, kind, mv.Memo); err != nil {
			return i, err
		}
	}
	return len(legs), nil
}

// sameBooks fails the test unless the twins hold the same balances, the same
// ledger (Seq, Kind, Memo, At and all) and the same per-account histories.
func sameBooks(t *testing.T, when string, batch, seq *Bank) {
	t.Helper()
	for _, id := range batchAccounts {
		b1, err1 := batch.Balance(id)
		b2, err2 := seq.Balance(id)
		if b1 != b2 || (err1 == nil) != (err2 == nil) {
			t.Fatalf("%s: %s holds %v after the batch, %v after the sequence", when, id, b1, b2)
		}
		if h1, h2 := batch.History(id), seq.History(id); !reflect.DeepEqual(h1, h2) {
			t.Fatalf("%s: history of %s differs:\n batch    %+v\n sequence %+v", when, id, h1, h2)
		}
	}
	if !reflect.DeepEqual(batch.ledger, seq.ledger) || batch.seq != seq.seq {
		t.Fatalf("%s: ledgers differ (%d entries, seq %d vs %d entries, seq %d)", when,
			len(batch.ledger), batch.seq, len(seq.ledger), seq.seq)
	}
}

// TestMoveBatchMatchesMoveInternalSequence is the batch's contract: random
// legs through MoveBatch on one bank and one by one through MoveInternal on
// its twin — among them unknown accounts, a foreign owner, an empty account,
// non-positive amounts and an overflowing credit, anywhere in the batch —
// leave the same balances, ledger and histories and return the same error,
// with the legs before a failure applied and the ones after it not; and
// bank_internal_moves_total counts a batch's legs one by one.
func TestMoveBatchMatchesMoveInternalSequence(t *testing.T) {
	broker, stranger := batchIdentities(t)
	batch, _ := batchBank(t, broker, stranger, "", 0)
	seq, _ := batchBank(t, broker, stranger, "", 0)
	src := rng.New(17)
	refusals := map[string]int{}
	for round := 0; round < 300; round++ {
		legs := randomLegs(src)
		kind := []EntryKind{EntryCharge, EntryTransfer, EntryRefund}[src.Intn(3)]
		when := fmt.Sprintf("round %d", round)

		entries, moves := len(batch.ledger), mInternalMoves.Value()
		errBatch := batch.MoveBatch(broker, legs, kind)
		applied, errSeq := oneByOne(seq, broker, legs, kind)
		movesSeq := mInternalMoves.Value() - moves

		if (errBatch == nil) != (errSeq == nil) || (errBatch != nil && errBatch.Error() != errSeq.Error()) {
			t.Fatalf("%s: MoveBatch returned %v, the sequence %v", when, errBatch, errSeq)
		}
		for _, sentinel := range []error{ErrNoAccount, ErrBadAuthorization, ErrInsufficientFunds, ErrNonPositive, ErrSameAccount} {
			if errors.Is(errBatch, sentinel) != errors.Is(errSeq, sentinel) {
				t.Fatalf("%s: MoveBatch's %v is not the sequence's %v", when, errBatch, errSeq)
			}
		}
		if got := len(batch.ledger) - entries; got != applied {
			t.Fatalf("%s: batch of %d applied %d legs, the sequence %d (error %v)", when, len(legs), got, applied, errSeq)
		}
		if movesSeq != 2*uint64(applied) {
			t.Fatalf("%s: %d legs went through twice, bank_internal_moves_total moved by %d", when, applied, movesSeq)
		}
		sameBooks(t, when, batch, seq)
		if errSeq != nil {
			what := errSeq.Error()
			for _, sentinel := range []error{ErrNoAccount, ErrBadAuthorization, ErrInsufficientFunds, ErrNonPositive, ErrSameAccount} {
				if errors.Is(errSeq, sentinel) {
					what = sentinel.Error()
				}
			}
			refusals[what]++
			// The twins refuel, so that funds do not simply run out.
			for _, b := range []*Bank{batch, seq} {
				if err := b.Deposit("broker/job-1", 5*Credit, "top-up"); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if len(refusals) < 6 {
		t.Fatalf("schedule hit %d kinds of refusal, want all 6: %v", len(refusals), refusals)
	}
	if err := batch.MoveBatch(broker, nil, EntryCharge); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
}

// TestMoveBatchSelfMoveLeg: a leg that moves an account to itself is refused
// like any other bad leg — its error comes back, the leg before it stays
// applied, the one after it is not tried — and mints nothing.
func TestMoveBatchSelfMoveLeg(t *testing.T) {
	broker, stranger := batchIdentities(t)
	b, _ := batchBank(t, broker, stranger, "", 0)
	total, entries := b.TotalMoney(), len(b.ledger)
	err := b.MoveBatch(broker, []Move{
		{From: "broker/job-1", To: "broker", Amount: 1000, Memo: "first"},
		{From: "broker/job-2", To: "broker/job-2", Amount: 3, Memo: "self"},
		{From: "broker/job-1", To: "broker", Amount: 7, Memo: "never"},
	}, EntryCharge)
	if !errors.Is(err, ErrSameAccount) {
		t.Fatalf("batch with a self-move: %v, want ErrSameAccount", err)
	}
	for id, want := range map[AccountID]Amount{
		"broker/job-1": 40*Credit - 1000, "broker/job-2": 3 * Credit, "broker": 500*Credit + 1000,
	} {
		if got, _ := b.Balance(id); got != want {
			t.Errorf("%s = %v, want %v", id, got, want)
		}
	}
	if b.TotalMoney() != total || b.Drift() != 0 {
		t.Errorf("TotalMoney %v -> %v, Drift %v", total, b.TotalMoney(), b.Drift())
	}
	if got := len(b.ledger) - entries; got != 1 {
		t.Errorf("%d ledger entries written, want the first leg's only", got)
	}
}

// walBytes returns the concatenated WAL segments of a store directory.
func walBytes(t *testing.T, dir string) []byte {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(names)
	var all []byte
	for _, name := range names {
		p, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, p...)
	}
	return all
}

func fsyncs() uint64 {
	for _, h := range metrics.Default().Snapshot().Histograms {
		if h.Name == "wal_fsync_seconds" {
			return h.Count
		}
	}
	return 0
}

// TestMoveBatchDurable: on twin durable banks under SyncAlways a batch writes
// the WAL bytes the sequence writes — the same walMove records, no new kind —
// and recovers to the same state, with one fsync a batch where the sequence
// pays one a leg. A second pair snapshots every 4 records, so that snapshots
// fall inside batches.
func TestMoveBatchDurable(t *testing.T) {
	broker, stranger := batchIdentities(t)
	for _, snapshotEvery := range []int{1 << 20, 4} {
		t.Run(fmt.Sprintf("snapshot-every-%d", snapshotEvery), func(t *testing.T) {
			dirBatch, dirSeq := t.TempDir(), t.TempDir()
			batch, stBatch := batchBank(t, broker, stranger, dirBatch, snapshotEvery)
			seq, stSeq := batchBank(t, broker, stranger, dirSeq, snapshotEvery)
			src := rng.New(25)
			for round := 0; round < 40; round++ {
				legs := randomLegs(src)
				before := fsyncs()
				errBatch := batch.MoveBatch(broker, legs, EntryCharge)
				batchSyncs := fsyncs() - before
				applied, errSeq := oneByOne(seq, broker, legs, EntryCharge)
				seqSyncs := fsyncs() - before - batchSyncs
				if (errBatch == nil) != (errSeq == nil) {
					t.Fatalf("round %d: MoveBatch returned %v, the sequence %v", round, errBatch, errSeq)
				}
				// A snapshot rotates the log with syncs of its own; without
				// one, a batch is one group commit.
				if snapshotEvery > 1000 {
					if batchSyncs > 1 {
						t.Fatalf("round %d: batch of %d legs took %d fsyncs, want at most 1", round, len(legs), batchSyncs)
					}
					if seqSyncs != uint64(applied) {
						t.Fatalf("round %d: %d legs one by one took %d fsyncs; the fsync count is not counting", round, applied, seqSyncs)
					}
				}
				sameBooks(t, fmt.Sprintf("round %d", round), batch, seq)
			}
			if err := stBatch.Close(); err != nil {
				t.Fatal(err)
			}
			if err := stSeq.Close(); err != nil {
				t.Fatal(err)
			}
			// The seed is one whose schedule does not end on a snapshot, where
			// the log has just rotated and both sides would be empty.
			w1, w2 := walBytes(t, dirBatch), walBytes(t, dirSeq)
			if len(w1) == 0 || string(w1) != string(w2) {
				t.Fatalf("WAL bytes differ: batch wrote %d, sequence %d", len(w1), len(w2))
			}

			// Both recover, to the same bank.
			reopen := func(dir string) *Bank {
				st, err := durable.Open(dir, durable.Options{Sync: durable.SyncAlways})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { st.Close() })
				b := New(batch.id, &stepClock{t: sim.Epoch})
				if _, err := b.AttachDurability(st, snapshotEvery); err != nil {
					t.Fatal(err)
				}
				return b
			}
			r1, r2 := reopen(dirBatch), reopen(dirSeq)
			sameBooks(t, "after reopen", r1, r2)
			for _, id := range batchAccounts {
				was, _ := batch.Balance(id)
				if now, err := r1.Balance(id); err != nil || now != was {
					t.Fatalf("%s recovered with %v (%v), held %v before the restart", id, now, err, was)
				}
			}
		})
	}
}

// TestMoveBatchConcurrentWithTransfers runs batches against signed transfers
// on the same accounts (run it with -race): money is conserved and every leg
// and every transfer lands exactly once.
func TestMoveBatchConcurrentWithTransfers(t *testing.T) {
	broker, stranger := batchIdentities(t)
	b, _ := batchBank(t, broker, stranger, "", 0)
	const batches, legsEach, transfers = 200, 8, 200
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		legs := make([]Move, legsEach)
		for i := 0; i < batches; i++ {
			for j := range legs {
				legs[j] = Move{From: "broker", To: batchAccounts[1+j%2], Amount: 1000, Memo: "cpu h00"}
			}
			if err := b.MoveBatch(broker, legs, EntryCharge); err != nil {
				t.Errorf("batch %d: %v", i, err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < transfers; i++ {
			req := signedTransfer(broker, "broker", "stranger", 500, fmt.Sprintf("n-%d", i))
			if _, err := b.Transfer(req); err != nil {
				t.Errorf("transfer %d: %v", i, err)
				return
			}
		}
	}()
	wg.Wait()
	want := map[AccountID]Amount{
		"broker":       500*Credit - batches*legsEach*1000 - transfers*500,
		"broker/job-1": 40*Credit + batches*legsEach/2*1000,
		"broker/job-2": 3*Credit + batches*legsEach/2*1000,
		"stranger":     10*Credit + transfers*500,
	}
	for id, amount := range want {
		if got, err := b.Balance(id); err != nil || got != amount {
			t.Errorf("%s holds %v (%v), want %v", id, got, err, amount)
		}
	}
	if n := len(b.ledger); n != len(want)+1+batches*legsEach+transfers {
		t.Errorf("ledger has %d entries, want %d", n, len(want)+1+batches*legsEach+transfers)
	}
}
