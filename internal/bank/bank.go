package bank

import (
	"bytes"
	"crypto/ed25519"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"tycoongrid/internal/durable"
	"tycoongrid/internal/pki"
	"tycoongrid/internal/sim"
	"tycoongrid/internal/tracing"
)

// Errors returned by Bank operations.
var (
	ErrNoAccount         = errors.New("bank: no such account")
	ErrDuplicateAccount  = errors.New("bank: account already exists")
	ErrInsufficientFunds = errors.New("bank: insufficient funds")
	ErrNonPositive       = errors.New("bank: amount must be positive")
	ErrSameAccount       = errors.New("bank: source and destination are the same account")
	ErrBadAuthorization  = errors.New("bank: bad transfer authorization")
	ErrNonceReused       = errors.New("bank: transfer nonce already used")
)

// AccountID names an account. Sub-accounts use "parent/child" ids.
type AccountID string

// Account is the bank's view of one account.
type Account struct {
	ID      AccountID
	Owner   ed25519.PublicKey // key authorized to move funds out
	Parent  AccountID         // "" for top-level accounts
	Balance Amount
	Created time.Time
}

// EntryKind classifies ledger entries.
type EntryKind string

// Ledger entry kinds.
const (
	EntryDeposit  EntryKind = "deposit"
	EntryTransfer EntryKind = "transfer"
	EntryRefund   EntryKind = "refund"
	EntryCharge   EntryKind = "charge"
)

// Entry is one immutable ledger record.
type Entry struct {
	Seq    uint64
	Kind   EntryKind
	From   AccountID // "" for deposits
	To     AccountID
	Amount Amount
	Memo   string
	At     time.Time
}

// TransferRequest is the owner-signed authorization to move funds.
// The Nonce makes each authorization single-use.
type TransferRequest struct {
	From   AccountID
	To     AccountID
	Amount Amount
	Nonce  string
	Sig    []byte // owner signature over SigningBytes
}

// SigningBytes returns the canonical bytes the owner signs.
func (r *TransferRequest) SigningBytes() []byte {
	return canonical("tycoongrid-transfer-v1",
		string(r.From), string(r.To), amountBytes(r.Amount), r.Nonce)
}

// Receipt is the bank-signed proof that a transfer happened. It is the raw
// material of the paper's transfer tokens: the broker verifies the bank
// signature instead of querying the bank online.
type Receipt struct {
	TransferID string // equal to the request nonce
	From       AccountID
	To         AccountID
	Amount     Amount
	At         time.Time
	BankSig    []byte
}

// SigningBytes returns the canonical bytes the bank signs.
func (r *Receipt) SigningBytes() []byte {
	return canonical("tycoongrid-receipt-v1",
		r.TransferID, string(r.From), string(r.To),
		amountBytes(r.Amount), r.At.UTC().Format(time.RFC3339Nano))
}

// canonical builds a length-prefixed deterministic encoding of fields.
func canonical(fields ...any) []byte {
	var b bytes.Buffer
	for _, f := range fields {
		var p []byte
		switch v := f.(type) {
		case string:
			p = []byte(v)
		case []byte:
			p = v
		default:
			panic("bank: unsupported canonical field type")
		}
		var l [8]byte
		binary.BigEndian.PutUint64(l[:], uint64(len(p)))
		b.Write(l[:])
		b.Write(p)
	}
	return b.Bytes()
}

func amountBytes(a Amount) []byte {
	var p [8]byte
	binary.BigEndian.PutUint64(p[:], uint64(a))
	return p[:]
}

// Bank is a thread-safe ledger with signed receipts. By default it is purely
// in-memory; AttachDurability (wal.go) journals every mutation to a
// write-ahead log so the bank survives crashes.
type Bank struct {
	mu        sync.Mutex
	id        *pki.Identity
	clock     sim.Clock
	accounts  map[AccountID]*Account
	receipts  map[string]Receipt // issued receipts by nonce: the spent nonces, and the idempotent replay
	ledger    []Entry
	seq       uint64
	ledgerCap int // 0 = unbounded
	tracer    *tracing.Tracer

	// Conservation accounting (conservation.go): baseline is the total money
	// captured at construction or after WAL recovery; minted is the
	// money legitimately created by Deposit since then. Drift() should be
	// zero forever — the money-conservation SLO alerts when it is not.
	baseline Amount
	minted   Amount

	journal       *durable.Store // nil = in-memory only
	snapshotEvery int
	recSinceSnap  int
}

// Option customizes a Bank.
type Option func(*Bank)

// WithLedgerRetention caps the in-memory ledger at n entries; the oldest
// entries are dropped first. Balances are unaffected — only History is
// truncated. Long simulations produce millions of 10-second CPU
// micro-charges, so the experiment harnesses bound retention.
func WithLedgerRetention(n int) Option {
	return func(b *Bank) { b.ledgerCap = n }
}

// WithTracer makes the bank read the active scope that a transfer's latency
// exemplar names from t instead of the process-wide tracing.Default().
// Replicated experiments give each world its own tracer so concurrent worlds
// never observe each other's scopes.
func WithTracer(t *tracing.Tracer) Option {
	return func(b *Bank) {
		if t != nil {
			b.tracer = t
		}
	}
}

// New creates a bank whose receipts are signed by identity id.
func New(id *pki.Identity, clock sim.Clock, opts ...Option) *Bank {
	if clock == nil {
		clock = sim.WallClock{}
	}
	b := &Bank{
		id:       id,
		clock:    clock,
		accounts: make(map[AccountID]*Account),
		receipts: make(map[string]Receipt),
		tracer:   tracing.Default(),
	}
	for _, o := range opts {
		o(b)
	}
	return b
}

// PublicKey returns the key receipts are verified against.
func (b *Bank) PublicKey() ed25519.PublicKey { return b.id.Public() }

// CreateAccount registers a new top-level account owned by owner.
func (b *Bank) CreateAccount(id AccountID, owner ed25519.PublicKey) (*Account, error) {
	return b.createAccount(id, owner, "")
}

// CreateSubAccount registers child under parent, owned by owner (typically
// the broker's key). The paper's broker creates one sub-account per verified
// transfer token and funds host accounts from it.
func (b *Bank) CreateSubAccount(parent AccountID, child string, owner ed25519.PublicKey) (*Account, error) {
	b.mu.Lock()
	_, ok := b.accounts[parent]
	b.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: parent %q", ErrNoAccount, parent)
	}
	return b.createAccount(AccountID(string(parent)+"/"+child), owner, parent)
}

func (b *Bank) createAccount(id AccountID, owner ed25519.PublicKey, parent AccountID) (*Account, error) {
	if id == "" {
		return nil, errors.New("bank: empty account id")
	}
	if len(owner) != ed25519.PublicKeySize {
		return nil, fmt.Errorf("bank: account %q: owner key has %d bytes, want %d",
			id, len(owner), ed25519.PublicKeySize)
	}
	cp, wait, err := b.createAccountLocked(id, owner, parent)
	if err != nil {
		return nil, err
	}
	if err := commitWait(wait); err != nil {
		return nil, err
	}
	return &cp, nil
}

func (b *Bank) createAccountLocked(id AccountID, owner ed25519.PublicKey, parent AccountID) (Account, func() error, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.accounts[id]; ok {
		return Account{}, nil, fmt.Errorf("%w: %q", ErrDuplicateAccount, id)
	}
	a := &Account{ID: id, Owner: owner, Parent: parent, Created: b.clock.Now()}
	b.accounts[id] = a
	mAccounts.Inc()
	return *a, b.stage(func() []byte { return encCreateAccount(a) }), nil
}

// Lookup returns a copy of the account record.
func (b *Bank) Lookup(id AccountID) (Account, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	a, ok := b.accounts[id]
	if !ok {
		return Account{}, fmt.Errorf("%w: %q", ErrNoAccount, id)
	}
	return *a, nil
}

// Balance returns the current balance of id.
func (b *Bank) Balance(id AccountID) (Amount, error) {
	a, err := b.Lookup(id)
	if err != nil {
		return 0, err
	}
	return a.Balance, nil
}

// Deposit credits amount to id out of thin air — the funding operation a
// grid operator uses to grant users periodic allocations.
func (b *Bank) Deposit(id AccountID, amount Amount, memo string) error {
	if amount <= 0 {
		return ErrNonPositive
	}
	wait, err := b.depositLocked(id, amount, memo)
	if err != nil {
		return err
	}
	return commitWait(wait)
}

func (b *Bank) depositLocked(id AccountID, amount Amount, memo string) (func() error, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	a, ok := b.accounts[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoAccount, id)
	}
	nb, err := addChecked(a.Balance, amount)
	if err != nil {
		return nil, err
	}
	a.Balance = nb
	b.minted += amount
	at := b.clock.Now()
	b.appendEntryAt(EntryDeposit, "", id, amount, memo, at)
	mDeposits.Inc()
	return b.stage(func() []byte { return encDeposit(id, amount, memo, at) }), nil
}

// Transfer executes an owner-signed transfer request and returns a
// bank-signed receipt. The request nonce is consumed; replaying the exact
// same request (same from/to/amount, valid signature) returns the original
// receipt without moving money again — the idempotence HTTP clients rely on
// when they retry after a timeout or a bank restart — and answers only once
// the original's log record is as durable as the original's own answer
// required. A request that reuses the nonce with different terms fails with
// ErrNonceReused.
func (b *Bank) Transfer(req TransferRequest) (Receipt, error) {
	if req.Amount <= 0 {
		return Receipt{}, ErrNonPositive
	}
	if req.Nonce == "" {
		return Receipt{}, errors.New("bank: empty transfer nonce")
	}
	wallStart := time.Now()
	r, wait, err := b.transferLocked(req)
	if err != nil {
		return Receipt{}, err
	}
	if err := commitWait(wait); err != nil {
		return Receipt{}, err
	}
	if s := b.tracer.Current(); s.Recording() {
		mTransferSeconds.ObserveExemplar(time.Since(wallStart).Seconds(), s.Context().TraceID.String())
	} else {
		mTransferSeconds.Observe(time.Since(wallStart).Seconds())
	}
	return r, nil
}

func (b *Bank) transferLocked(req TransferRequest) (Receipt, func() error, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	from, ok := b.accounts[req.From]
	if !ok {
		return Receipt{}, nil, fmt.Errorf("%w: %q", ErrNoAccount, req.From)
	}
	to, ok := b.accounts[req.To]
	if !ok {
		return Receipt{}, nil, fmt.Errorf("%w: %q", ErrNoAccount, req.To)
	}
	if from == to {
		// Debit then credit of one account would store the credit over the
		// debit and mint the amount; refused before the nonce is spent.
		return Receipt{}, nil, fmt.Errorf("%w: %q", ErrSameAccount, req.From)
	}
	if !pki.Verify(from.Owner, req.SigningBytes(), req.Sig) {
		mRejectedSigs.Inc()
		return Receipt{}, nil, ErrBadAuthorization
	}
	if prev, ok := b.receipts[req.Nonce]; ok {
		if prev.From == req.From && prev.To == req.To && prev.Amount == req.Amount {
			// Already applied: return the stored receipt, but not before the
			// original's record is durable — it may still be waiting on its
			// fsync, and a receipt for a transfer recovery would not contain
			// is money the payer never lost.
			mTransferReplays.Inc()
			return prev, b.barrier(), nil
		}
		mNonceReuse.Inc()
		return Receipt{}, nil, ErrNonceReused
	}
	if from.Balance < req.Amount {
		mInsufficient.Inc()
		return Receipt{}, nil, fmt.Errorf("%w: %q has %v, needs %v",
			ErrInsufficientFunds, req.From, from.Balance, req.Amount)
	}
	nb, err := addChecked(to.Balance, req.Amount)
	if err != nil {
		return Receipt{}, nil, err
	}
	from.Balance -= req.Amount
	to.Balance = nb
	mTransfers.Inc()
	mTransferAmount.Observe(req.Amount.Credits())

	r := Receipt{
		TransferID: req.Nonce,
		From:       req.From,
		To:         req.To,
		Amount:     req.Amount,
		At:         b.clock.Now(),
	}
	r.BankSig = b.id.Sign(r.SigningBytes())
	b.receipts[req.Nonce] = r
	b.appendEntryAt(EntryTransfer, req.From, req.To, req.Amount, "", r.At)
	return r, b.stage(func() []byte { return encTransfer(r) }), nil
}

// Move is one leg of a MoveBatch: what MoveInternal takes, less the owner and
// the entry kind the whole batch shares.
type Move struct {
	From, To AccountID
	Amount   Amount
	Memo     string
}

// MoveInternal transfers between two accounts that share an owner key, on
// the owner's behalf, without a signed request. It is used by services that
// already hold the owner identity (the broker funding host accounts from a
// sub-account, or an auctioneer charging a host account). It is a MoveBatch
// of one leg.
func (b *Bank) MoveInternal(owner *pki.Identity, from, to AccountID, amount Amount, kind EntryKind, memo string) error {
	return b.MoveBatch(owner, []Move{{From: from, To: to, Amount: amount, Memo: memo}}, kind)
}

// MoveBatch makes a run of moves by one owner, all of one kind: the legs are
// checked, applied and recorded one by one in order (one ledger entry and one
// WAL record each), but under one lock round-trip and — on a durable bank —
// one wait for the log, so a batch costs one fsync however many legs it has.
// It stops at the first leg that fails and returns that leg's error: the legs
// before it stay applied and the ones after it are not tried.
func (b *Bank) MoveBatch(owner *pki.Identity, legs []Move, kind EntryKind) error {
	waits, err := b.moveBatchLocked(owner.Public(), legs, kind)
	// The first wait syncs everything staged so far, so the rest return at
	// once; a log failure on an earlier leg outranks a later leg's refusal.
	for _, wait := range waits {
		if werr := wait(); werr != nil {
			return werr
		}
	}
	return err
}

func (b *Bank) moveBatchLocked(owner ed25519.PublicKey, legs []Move, kind EntryKind) ([]func() error, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	var waits []func() error
	for i, mv := range legs {
		wait, err := b.applyMove(owner, mv, kind)
		if err != nil {
			mInternalMoves.Add(uint64(i))
			return waits, err
		}
		if wait != nil { // only a durable bank has anything to wait for
			waits = append(waits, wait)
		}
	}
	mInternalMoves.Add(uint64(len(legs)))
	return waits, nil
}

// applyMove checks and applies one owner-authorized move, appends its ledger
// entry and stages its WAL record; callers hold b.mu.
func (b *Bank) applyMove(owner ed25519.PublicKey, mv Move, kind EntryKind) (func() error, error) {
	if mv.Amount <= 0 {
		return nil, ErrNonPositive
	}
	f, ok := b.accounts[mv.From]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoAccount, mv.From)
	}
	t, ok := b.accounts[mv.To]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoAccount, mv.To)
	}
	if f == t {
		return nil, fmt.Errorf("%w: %q", ErrSameAccount, mv.From)
	}
	if !f.Owner.Equal(owner) {
		return nil, ErrBadAuthorization
	}
	if f.Balance < mv.Amount {
		mInsufficient.Inc()
		return nil, fmt.Errorf("%w: %q has %v, needs %v", ErrInsufficientFunds, mv.From, f.Balance, mv.Amount)
	}
	nb, err := addChecked(t.Balance, mv.Amount)
	if err != nil {
		return nil, err
	}
	f.Balance -= mv.Amount
	t.Balance = nb
	at := b.clock.Now()
	b.appendEntryAt(kind, mv.From, mv.To, mv.Amount, mv.Memo, at)
	return b.stage(func() []byte { return encMove(kind, mv.From, mv.To, mv.Amount, mv.Memo, at) }), nil
}

// VerifyReceipt checks a receipt's bank signature against bankKey.
func VerifyReceipt(bankKey ed25519.PublicKey, r Receipt) bool {
	return pki.Verify(bankKey, r.SigningBytes(), r.BankSig)
}

// appendEntryAt records a ledger entry stamped at; callers hold b.mu. WAL
// replay passes the originally recorded time so recovered ledgers match the
// pre-crash ones.
func (b *Bank) appendEntryAt(kind EntryKind, from, to AccountID, amount Amount, memo string, at time.Time) {
	b.seq++
	b.ledger = append(b.ledger, Entry{
		Seq: b.seq, Kind: kind, From: from, To: to,
		Amount: amount, Memo: memo, At: at,
	})
	// Trim lazily at 2x the cap so the copy cost amortizes to O(1).
	if b.ledgerCap > 0 && len(b.ledger) > 2*b.ledgerCap {
		drop := len(b.ledger) - b.ledgerCap
		b.ledger = append(b.ledger[:0], b.ledger[drop:]...)
	}
}

// History returns the ledger entries that touch id, oldest first.
func (b *Bank) History(id AccountID) []Entry {
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []Entry
	for _, e := range b.ledger {
		if e.From == id || e.To == id {
			out = append(out, e)
		}
	}
	return out
}

// TotalMoney returns the sum of all balances — conserved by every operation
// except Deposit; the invariant the property tests verify.
func (b *Bank) TotalMoney() Amount {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.totalLocked()
}

// totalLocked sums every balance; callers hold b.mu.
func (b *Bank) totalLocked() Amount {
	var total Amount
	for _, a := range b.accounts {
		total += a.Balance
	}
	return total
}

// Accounts returns the ids of all accounts, in no particular order.
func (b *Bank) Accounts() []AccountID {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]AccountID, 0, len(b.accounts))
	for id := range b.accounts {
		out = append(out, id)
	}
	return out
}
