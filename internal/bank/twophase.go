package bank

// Two-phase transfer primitives.
//
// When accounts are partitioned across independent bank shards (GridBank's
// distributed Grid Bank Servers, marketplane.ShardedBank here), a transfer
// whose source and destination live on different shards cannot be a single
// atomic balance swap. The coordinator instead runs a two-phase protocol
// built from the primitives below:
//
//	src.PrepareDebit(tx)   debit the source, park the money in a hold
//	src.MarkCommitted(tx)  durably record the commit decision on the source
//	dst.CreditPrepared(tx) credit the destination (idempotent by tx id)
//	src.FinalizeDebit(tx)  burn the hold — the money now lives at dst
//	dst.ForgetCredit(tx)   prune the idempotence record
//
// If anything dies before MarkCommitted, the decision is "abort" and
// AbortDebit returns the held money to the source. If it dies after, the
// decision is "commit" and recovery replays CreditPrepared (safe to repeat)
// and FinalizeDebit. Held money is part of the source shard's money supply —
// HeldTotal — so conservation (sum of balances plus holds, across shards,
// equals total deposits) is checkable at every instant of the protocol.
//
// The hold table and the credited set model GridBank's durable transaction
// journal: a simulated shard crash (marketplane.ShardedBank.CrashShard)
// makes the shard unavailable but, like a real bank's write-ahead log, never
// loses prepared or committed state.

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"sort"
	"time"

	"tycoongrid/internal/pki"
)

// Ledger entry kinds appended by the two-phase primitives.
const (
	// EntryPrepare records money leaving an account into a hold.
	EntryPrepare EntryKind = "2pc-prepare"
	// EntryCommitCredit records a prepared transfer landing at its
	// destination account.
	EntryCommitCredit EntryKind = "2pc-credit"
	// EntryAbort records a hold being returned to its source account.
	EntryAbort EntryKind = "2pc-abort"
)

// Errors returned by the two-phase primitives.
var (
	ErrUnknownHold   = errors.New("bank: no such hold")
	ErrDuplicateHold = errors.New("bank: hold already exists")
	ErrHoldState     = errors.New("bank: hold in wrong state for operation")
)

// Hold is a prepared debit: money already removed from the source account,
// parked until the transfer commits or aborts.
type Hold struct {
	TX        string
	From      AccountID
	To        AccountID // destination; may live on a different bank shard
	Amount    Amount
	Committed bool
	At        time.Time
}

// PrepareDebit starts a two-phase transfer: it debits from into a hold named
// tx, authorized by the account owner's identity exactly like MoveInternal.
// to names the destination account, which need not exist on this bank — it
// is recorded so recovery knows where committed money must go.
func (b *Bank) PrepareDebit(owner *pki.Identity, from, to AccountID, amount Amount, tx string) error {
	if amount <= 0 {
		return ErrNonPositive
	}
	if tx == "" {
		return errors.New("bank: empty transaction id")
	}
	wait, err := b.prepareDebitLocked(owner, from, to, amount, tx)
	if err != nil {
		return err
	}
	return commitWait(wait)
}

func (b *Bank) prepareDebitLocked(owner *pki.Identity, from, to AccountID, amount Amount, tx string) (func() error, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.holds[tx]; ok {
		return nil, fmt.Errorf("%w: %q", ErrDuplicateHold, tx)
	}
	f, ok := b.accounts[from]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoAccount, from)
	}
	if !f.Owner.Equal(owner.Public()) {
		return nil, ErrBadAuthorization
	}
	if f.Balance < amount {
		mInsufficient.Inc()
		return nil, fmt.Errorf("%w: %q has %v, needs %v", ErrInsufficientFunds, from, f.Balance, amount)
	}
	f.Balance -= amount
	h := &Hold{TX: tx, From: from, To: to, Amount: amount, At: b.clock.Now()}
	b.holds[tx] = h
	b.appendEntryAt(EntryPrepare, from, "", amount, tx, h.At)
	return b.stage(func() []byte { return encPrepare(h, false) }), nil
}

// PrepareTransfer is PrepareDebit authorized by an owner-signed
// TransferRequest instead of a held identity: signature and nonce are
// verified and consumed exactly like Transfer, but the money goes into a
// hold (named by the request nonce) instead of the destination account.
func (b *Bank) PrepareTransfer(req TransferRequest) error {
	if req.Amount <= 0 {
		return ErrNonPositive
	}
	if req.Nonce == "" {
		return errors.New("bank: empty transfer nonce")
	}
	wait, err := b.prepareTransferLocked(req)
	if err != nil {
		return err
	}
	return commitWait(wait)
}

func (b *Bank) prepareTransferLocked(req TransferRequest) (func() error, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.holds[req.Nonce]; ok {
		return nil, fmt.Errorf("%w: %q", ErrDuplicateHold, req.Nonce)
	}
	f, ok := b.accounts[req.From]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoAccount, req.From)
	}
	if !pki.Verify(f.Owner, req.SigningBytes(), req.Sig) {
		mRejectedSigs.Inc()
		return nil, ErrBadAuthorization
	}
	if b.nonces[req.Nonce] {
		mNonceReuse.Inc()
		return nil, ErrNonceReused
	}
	if f.Balance < req.Amount {
		mInsufficient.Inc()
		return nil, fmt.Errorf("%w: %q has %v, needs %v",
			ErrInsufficientFunds, req.From, f.Balance, req.Amount)
	}
	f.Balance -= req.Amount
	b.nonces[req.Nonce] = true
	h := &Hold{
		TX: req.Nonce, From: req.From, To: req.To, Amount: req.Amount, At: b.clock.Now(),
	}
	b.holds[req.Nonce] = h
	b.appendEntryAt(EntryPrepare, req.From, "", req.Amount, req.Nonce, h.At)
	return b.stage(func() []byte { return encPrepare(h, true) }), nil
}

// MarkCommitted durably records the commit decision on the source bank. It
// is the protocol's point of no return: once marked, recovery must complete
// the credit rather than abort. The decision is journaled before this
// returns, so a bank that acknowledged a commit re-derives the same decision
// after a crash.
func (b *Bank) MarkCommitted(tx string) error {
	wait, err := b.markCommittedLocked(tx)
	if err != nil {
		return err
	}
	return commitWait(wait)
}

func (b *Bank) markCommittedLocked(tx string) (func() error, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	h, ok := b.holds[tx]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownHold, tx)
	}
	if h.Committed {
		return nil, nil // already durable — idempotent replay
	}
	h.Committed = true
	return b.stage(func() []byte { return encTx(walCommit, tx) }), nil
}

// CreditPrepared applies the destination half of a committed transfer. It is
// idempotent by tx: replays during crash recovery credit the account exactly
// once. The destination account must exist on this bank.
func (b *Bank) CreditPrepared(to AccountID, amount Amount, tx, memo string) error {
	if amount <= 0 {
		return ErrNonPositive
	}
	if tx == "" {
		return errors.New("bank: empty transaction id")
	}
	wait, err := b.creditPreparedLocked(to, amount, tx, memo)
	if err != nil {
		return err
	}
	return commitWait(wait)
}

func (b *Bank) creditPreparedLocked(to AccountID, amount Amount, tx, memo string) (func() error, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.credited[tx] {
		return nil, nil // already applied — recovery replay
	}
	t, ok := b.accounts[to]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoAccount, to)
	}
	nb, err := addChecked(t.Balance, amount)
	if err != nil {
		return nil, err
	}
	t.Balance = nb
	b.credited[tx] = true
	at := b.clock.Now()
	b.appendEntryAt(EntryCommitCredit, "", to, amount, memo, at)
	return b.stage(func() []byte { return encCredit(tx, to, amount, memo, at) }), nil
}

// FinalizeDebit burns a committed hold: the money has landed at the
// destination, so the source shard stops counting it. Finalizing an
// uncommitted hold is a protocol error.
func (b *Bank) FinalizeDebit(tx string) error {
	wait, err := b.finalizeDebitLocked(tx)
	if err != nil {
		return err
	}
	return commitWait(wait)
}

func (b *Bank) finalizeDebitLocked(tx string) (func() error, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	h, ok := b.holds[tx]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownHold, tx)
	}
	if !h.Committed {
		return nil, fmt.Errorf("%w: finalize of uncommitted %q", ErrHoldState, tx)
	}
	delete(b.holds, tx)
	return b.stage(func() []byte { return encTx(walFinalize, tx) }), nil
}

// AbortDebit cancels an uncommitted hold, returning the money to the source
// account. Aborting a committed hold is a protocol error: the commit
// decision is final.
func (b *Bank) AbortDebit(tx string) error {
	wait, err := b.abortDebitLocked(tx)
	if err != nil {
		return err
	}
	return commitWait(wait)
}

func (b *Bank) abortDebitLocked(tx string) (func() error, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	h, ok := b.holds[tx]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownHold, tx)
	}
	if h.Committed {
		return nil, fmt.Errorf("%w: abort of committed %q", ErrHoldState, tx)
	}
	a, ok := b.accounts[h.From]
	if !ok {
		// Accounts are never deleted; a missing source is an internal bug.
		return nil, fmt.Errorf("%w: %q", ErrNoAccount, h.From)
	}
	nb, err := addChecked(a.Balance, h.Amount)
	if err != nil {
		return nil, err
	}
	a.Balance = nb
	delete(b.holds, tx)
	at := b.clock.Now()
	b.appendEntryAt(EntryAbort, "", h.From, h.Amount, tx, at)
	return b.stage(func() []byte { return encAbort(tx, at) }), nil
}

// ForgetCredit prunes the idempotence record for tx once the coordinator has
// finalized the source hold — after that point no replay can arrive, so
// keeping the record would only grow memory without bound.
func (b *Bank) ForgetCredit(tx string) {
	b.mu.Lock()
	var wait func() error
	if b.credited[tx] {
		delete(b.credited, tx)
		wait = b.stage(func() []byte { return encTx(walForget, tx) })
	}
	b.mu.Unlock()
	// Pruning an idempotence record is garbage collection: losing the record
	// to a crash is safe (a replayed credit is simply deduplicated again), so
	// a journal error here is not surfaced — the store is already poisoned
	// and the next money-moving operation will report it.
	_ = commitWait(wait)
}

// Holds returns the outstanding holds sorted by transaction id — the
// in-doubt set recovery walks after a crash.
func (b *Bank) Holds() []Hold {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]Hold, 0, len(b.holds))
	for _, h := range b.holds {
		out = append(out, *h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TX < out[j].TX })
	return out
}

// HeldTotal returns the money parked in outstanding holds. Conservation
// across a sharded deployment is sum over shards of TotalMoney() plus
// HeldTotal() — constant under transfers, whatever the crash schedule.
func (b *Bank) HeldTotal() Amount {
	b.mu.Lock()
	defer b.mu.Unlock()
	var total Amount
	for _, h := range b.holds {
		total += h.Amount
	}
	return total
}

// CreditRecorded reports whether the idempotent credit for tx has been
// applied on this bank and not yet forgotten. A coordinator (or a global
// conservation check) uses it to tell a committed hold whose money is still
// in transit from one whose money has already landed at the destination.
func (b *Bank) CreditRecorded(tx string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.credited[tx]
}

// CreateChildAccount registers "parent/child" on this bank without requiring
// the parent account to exist here — in a sharded deployment the parent
// typically lives on a different shard, and the coordinator has already
// verified it. Single-bank callers should use CreateSubAccount, which keeps
// the parent-existence check.
func (b *Bank) CreateChildAccount(parent AccountID, child string, owner ed25519.PublicKey) (*Account, error) {
	return b.createAccount(AccountID(string(parent)+"/"+child), owner, parent)
}
