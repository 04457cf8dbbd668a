package bank

// Durable bank state: every mutation is encoded as one write-ahead-log
// record and staged (in lock order) before the operation is acknowledged;
// snapshots serialize the complete ledger state. Recovery replays records
// atop the latest snapshot through apply functions that repeat the original
// mutation exactly — no signature re-verification, no re-deciding — so the
// recovered bank is bit-identical to some acknowledged prefix of the
// pre-crash bank. There are four record kinds, one per mutation: account
// creation, deposit, signed transfer and owner move. A transfer record and a
// snapshot carry a receipt's facts, not its signature: the bank signs them
// again when a replay asks (Bank.receipt).

import (
	"crypto/ed25519"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"tycoongrid/internal/durable"
)

// DefaultSnapshotEvery is the record count between snapshots when
// AttachDurability is given a non-positive interval.
const DefaultSnapshotEvery = 65536

// maxSnapshotLedger bounds the ledger tail carried in a snapshot; History
// may therefore be truncated to the most recent entries across a restart.
// Balances and receipts are never truncated.
const maxSnapshotLedger = 65536

// WAL record kinds. Kind 3 was the transfer record that also carried the
// receipt's signature, and kinds 5–10 the retired two-phase transfer records;
// a log holding one fails recovery as an unknown kind rather than coming up
// without the money its record moved.
const (
	walCreateAccount byte = 1
	walDeposit       byte = 2
	walMove          byte = 4
	walTransfer      byte = 11
)

// snapshotVersion 3 dropped version 2's receipt signatures and the ledger
// lines' Seq (the snapshot's seq is the last line's); version 2 dropped
// version 1's nonce, hold and credited-set sections. An older snapshot fails
// recovery.
const snapshotVersion byte = 3

// AttachDurability wires the bank to st: the latest snapshot and WAL are
// replayed into the (necessarily still empty) bank, and from then on every
// mutation is journaled before acknowledgment, with a fresh snapshot every
// snapshotEvery records (<=0 selects DefaultSnapshotEvery). It returns the
// recovery stats so daemons can log what was restored.
func (b *Bank) AttachDurability(st *durable.Store, snapshotEvery int) (durable.RecoverStats, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.journal != nil {
		return durable.RecoverStats{}, errors.New("bank: durability already attached")
	}
	if len(b.accounts) != 0 || b.seq != 0 {
		return durable.RecoverStats{}, errors.New("bank: attach durability before first use")
	}
	start := time.Now()
	stats, err := st.Recover(b.restoreSnapshot, b.applyRecord)
	if err != nil {
		return stats, err
	}
	mRecoverySeconds.Observe(time.Since(start).Seconds())
	if snapshotEvery <= 0 {
		snapshotEvery = DefaultSnapshotEvery
	}
	b.journal = st
	b.snapshotEvery = snapshotEvery
	// Recovered state is the new conservation baseline: replayed deposits
	// are already inside it, so the minted ledger restarts from zero.
	b.baseline = b.totalLocked()
	b.minted = 0
	return stats, nil
}

// stage journals one record; callers hold b.mu. The record arrives as its
// encoder, which runs only when a journal is attached: an in-memory bank (every
// simulated world) must not pay for bytes nobody will write. The returned
// wait function (nil when the bank has no journal) blocks until the record —
// and, when the snapshot threshold trips, the snapshot — is durable; callers
// invoke it after releasing b.mu so concurrent operations share group commits.
func (b *Bank) stage(encode func() []byte) func() error {
	if b.journal == nil {
		return nil
	}
	wait := b.journal.AppendAsync(encode())
	b.recSinceSnap++
	if b.recSinceSnap >= b.snapshotEvery {
		b.recSinceSnap = 0
		if err := b.journal.Snapshot(b.encodeSnapshot()); err != nil {
			return func() error {
				if werr := wait(); werr != nil {
					return werr
				}
				return err
			}
		}
	}
	return wait
}

// barrier returns a wait for every record staged so far (nil without a
// journal), for an answer built on state an earlier record created; callers
// hold b.mu.
func (b *Bank) barrier() func() error {
	if b.journal == nil {
		return nil
	}
	return b.journal.Barrier()
}

// commitWait runs a stage wait function, treating nil as already-durable.
func commitWait(wait func() error) error {
	if wait == nil {
		return nil
	}
	return wait()
}

// ---- record encoding ----

type walEnc struct{ b []byte }

func (e *walEnc) kind(k byte)  { e.b = append(e.b, k) }
func (e *walEnc) u64(v uint64) { e.b = binary.AppendUvarint(e.b, v) }
func (e *walEnc) i64(v int64)  { e.b = binary.AppendVarint(e.b, v) }
func (e *walEnc) bytes(p []byte) {
	e.b = binary.AppendUvarint(e.b, uint64(len(p)))
	e.b = append(e.b, p...)
}
func (e *walEnc) str(s string) {
	e.b = binary.AppendUvarint(e.b, uint64(len(s)))
	e.b = append(e.b, s...)
}

type walDec struct {
	b   []byte
	err error
}

func (d *walDec) fail() {
	if d.err == nil {
		d.err = errors.New("bank: truncated wal record")
	}
}

func (d *walDec) kind() byte {
	if d.err != nil || len(d.b) == 0 {
		d.fail()
		return 0
	}
	k := d.b[0]
	d.b = d.b[1:]
	return k
}

func (d *walDec) u64() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *walDec) i64() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *walDec) bytes() []byte {
	n := d.u64()
	if d.err != nil || uint64(len(d.b)) < n {
		d.fail()
		return nil
	}
	p := append([]byte(nil), d.b[:n]...)
	d.b = d.b[n:]
	return p
}

func (d *walDec) str() string { return string(d.bytes()) }

// ---- per-operation record builders (callers hold b.mu) ----

func encCreateAccount(a *account) []byte {
	var e walEnc
	e.kind(walCreateAccount)
	e.str(string(a.id))
	e.bytes(a.owner[:])
	e.str(string(a.parentID()))
	e.i64(a.created)
	return e.b
}

func encDeposit(id AccountID, amount Amount, memo string, at int64) []byte {
	var e walEnc
	e.kind(walDeposit)
	e.str(string(id))
	e.i64(int64(amount))
	e.str(memo)
	e.i64(at)
	return e.b
}

func encTransfer(nonce string, t issued) []byte {
	var e walEnc
	e.kind(walTransfer)
	e.str(string(t.from.id))
	e.str(string(t.to.id))
	e.i64(int64(t.amount))
	e.str(nonce)
	e.i64(t.at)
	return e.b
}

func encMove(kind EntryKind, from, to AccountID, amount Amount, memo string, at int64) []byte {
	var e walEnc
	e.kind(walMove)
	e.str(string(kind))
	e.str(string(from))
	e.str(string(to))
	e.i64(int64(amount))
	e.str(memo)
	e.i64(at)
	return e.b
}

// ---- replay ----

// applyRecord repeats one logged mutation during recovery; callers hold
// b.mu (AttachDurability). The apply paths touch no metrics and verify no
// signatures: both happened before the record was written.
func (b *Bank) applyRecord(rec []byte) error {
	d := walDec{b: rec}
	kind := d.kind()
	switch kind {
	case walCreateAccount:
		id := AccountID(d.str())
		owner := d.bytes()
		parent := AccountID(d.str())
		created := d.i64()
		if d.err != nil {
			return d.err
		}
		if _, ok := b.accounts[id]; ok {
			return fmt.Errorf("bank: replayed duplicate account %q", id)
		}
		a, err := b.recoveredAccount(id, owner, parent, created)
		if err != nil {
			return err
		}
		b.accounts[id] = a

	case walDeposit:
		id := AccountID(d.str())
		amount := Amount(d.i64())
		memo := d.str()
		at := d.i64()
		if d.err != nil {
			return d.err
		}
		a, ok := b.accounts[id]
		if !ok {
			return fmt.Errorf("bank: replayed deposit to missing account %q", id)
		}
		a.balance += amount
		b.appendEntryAt(lineDeposit, nil, a, amount, memo, at)

	case walTransfer:
		from := AccountID(d.str())
		to := AccountID(d.str())
		amount := Amount(d.i64())
		nonce := d.str()
		at := d.i64()
		if d.err != nil {
			return d.err
		}
		f, ok := b.accounts[from]
		if !ok {
			return fmt.Errorf("bank: replayed transfer from missing account %q", from)
		}
		t, ok := b.accounts[to]
		if !ok {
			return fmt.Errorf("bank: replayed transfer to missing account %q", to)
		}
		if _, ok := b.receipts[nonce]; ok {
			return fmt.Errorf("bank: replayed transfer reuses nonce %q", nonce)
		}
		f.balance -= amount
		t.balance += amount
		b.appendSigned(nonce, issued{from: f, to: t, amount: amount, at: at})

	case walMove:
		ekind := EntryKind(d.str())
		from := AccountID(d.str())
		to := AccountID(d.str())
		amount := Amount(d.i64())
		memo := d.str()
		at := d.i64()
		if d.err != nil {
			return d.err
		}
		code, err := lineKindOf(ekind)
		if err != nil {
			return fmt.Errorf("bank: replayed move: %w", err)
		}
		f, ok := b.accounts[from]
		if !ok {
			return fmt.Errorf("bank: replayed move from missing account %q", from)
		}
		t, ok := b.accounts[to]
		if !ok {
			return fmt.Errorf("bank: replayed move to missing account %q", to)
		}
		f.balance -= amount
		t.balance += amount
		b.appendEntryAt(code, f, t, amount, memo, at)

	default:
		return fmt.Errorf("bank: unknown wal record kind %d", kind)
	}
	return d.err
}

// recoveredAccount is the record of an account read back from the log or a
// snapshot; callers hold b.mu. An owner key that is not 32 bytes — one no
// signature could ever move money out of — or a parent the bank does not
// hold, or whose id the account's does not extend as CreateSubAccount's
// would, fails recovery, naming the account.
func (b *Bank) recoveredAccount(id AccountID, owner []byte, parent AccountID, created int64) (*account, error) {
	if len(owner) != ed25519.PublicKeySize {
		return nil, fmt.Errorf("bank: recovered account %q: owner key has %d bytes, want %d",
			id, len(owner), ed25519.PublicKeySize)
	}
	a := &account{id: id, owner: (*[ed25519.PublicKeySize]byte)(owner), created: created}
	if parent != "" {
		if !strings.HasPrefix(string(id), string(parent)+"/") {
			return nil, fmt.Errorf("bank: recovered account %q: not a sub-account id of parent %q", id, parent)
		}
		if a.parent = b.accounts[parent]; a.parent == nil {
			return nil, fmt.Errorf("bank: recovered account %q: no parent %q", id, parent)
		}
	}
	return a, nil
}

// ---- snapshot ----

// encodeSnapshot serializes the whole bank state deterministically (sorted
// iteration everywhere); callers hold b.mu.
func (b *Bank) encodeSnapshot() []byte {
	var e walEnc
	e.kind(snapshotVersion)
	e.u64(b.seq)

	ids := make([]string, 0, len(b.accounts))
	for id := range b.accounts {
		ids = append(ids, string(id))
	}
	sort.Strings(ids)
	e.u64(uint64(len(ids)))
	for _, id := range ids {
		a := b.accounts[AccountID(id)]
		e.str(id)
		e.bytes(a.owner[:])
		e.str(string(a.parentID()))
		e.i64(int64(a.balance))
		e.i64(a.created)
	}

	rids := make([]string, 0, len(b.receipts))
	for id := range b.receipts {
		rids = append(rids, id)
	}
	sort.Strings(rids)
	e.u64(uint64(len(rids)))
	for _, id := range rids {
		r := b.facts(b.receipts[id])
		e.str(id)
		e.str(string(r.from.id))
		e.str(string(r.to.id))
		e.i64(int64(r.amount))
		e.i64(r.at)
	}

	ledger := b.ledger
	if len(ledger) > maxSnapshotLedger {
		ledger = ledger[len(ledger)-maxSnapshotLedger:]
	}
	e.u64(uint64(len(ledger)))
	for _, l := range ledger {
		var from AccountID
		if l.from != nil {
			from = l.from.id
		}
		e.str(string(entryKinds[l.kind]))
		e.str(string(from))
		e.str(string(l.to.id))
		e.i64(int64(l.amount))
		e.str(l.entryMemo())
		e.i64(l.at)
	}
	return e.b
}

// restoreSnapshot loads a snapshot payload into the empty bank; callers
// hold b.mu (AttachDurability).
func (b *Bank) restoreSnapshot(payload []byte) error {
	d := walDec{b: payload}
	if v := d.kind(); v != snapshotVersion {
		return fmt.Errorf("bank: unknown snapshot version %d", v)
	}
	b.seq = d.u64()

	// Ids are sorted, and a sub-account's id extends its parent's, so every
	// parent is restored before its children.
	n := d.u64()
	for i := uint64(0); i < n && d.err == nil; i++ {
		id := AccountID(d.str())
		owner := d.bytes()
		parent := AccountID(d.str())
		balance := Amount(d.i64())
		created := d.i64()
		if d.err != nil {
			break
		}
		a, err := b.recoveredAccount(id, owner, parent, created)
		if err != nil {
			return err
		}
		a.balance = balance
		b.accounts[id] = a
	}

	n = d.u64()
	for i := uint64(0); i < n && d.err == nil; i++ {
		nonce := d.str()
		from, to := d.str(), d.str()
		r := issued{amount: Amount(d.i64()), at: d.i64()}
		if d.err != nil {
			break
		}
		r.from, r.to = b.accounts[AccountID(from)], b.accounts[AccountID(to)]
		if r.from == nil || r.to == nil {
			return fmt.Errorf("bank: snapshot receipt %q names a missing account", nonce)
		}
		// The snapshot does not say which line, if any, is the receipt's, so
		// its facts are kept apart from the ledger.
		b.keep(nonce, r)
	}

	n = d.u64()
	if d.err == nil && n > b.seq {
		return fmt.Errorf("bank: snapshot holds %d ledger lines up to seq %d", n, b.seq)
	}
	for i := uint64(0); i < n && d.err == nil; i++ {
		kind := EntryKind(d.str())
		from, to := d.str(), d.str()
		l := line{amount: Amount(d.i64()), memo: d.str(), at: d.i64()}
		if d.err != nil {
			break
		}
		code, err := lineKindOf(kind)
		if err != nil {
			return fmt.Errorf("bank: snapshot ledger line %d: %w", i, err)
		}
		l.kind = code
		l.from, l.to = b.accounts[AccountID(from)], b.accounts[AccountID(to)]
		if (l.from == nil && from != "") || l.to == nil {
			return fmt.Errorf("bank: snapshot ledger line %d names a missing account", i)
		}
		b.ledger = append(b.ledger, l)
	}
	return d.err
}
