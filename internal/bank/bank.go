package bank

import (
	"context"
	"crypto/ed25519"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
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

// Account is the bank's view of one account, built from its record when asked
// for (Lookup, CreateAccount). The owner key stays in the record: the bank
// checks signatures against it, and no caller reads it back.
type Account struct {
	ID      AccountID
	Parent  AccountID // "" for top-level accounts
	Balance Amount
	// Created is UTC, in whole nanoseconds with no monotonic reading: the
	// same value before and after a restart.
	Created time.Time
}

// account is what the bank keeps of one account: 48 bytes. The owner key is
// the creator's own 32 bytes, shared and not copied; the parent is its
// record, nil for a top-level account; the creation time is in Unix
// nanoseconds. Only the balance ever changes.
type account struct {
	id      AccountID
	owner   *[ed25519.PublicKeySize]byte
	parent  *account
	balance Amount
	created int64
}

// view is the Account a holds. Callers pass a copy taken under b.mu, or hold
// it: the balance is read from a, the rest never changes.
func (a *account) view() Account {
	return Account{ID: a.id, Parent: a.parentID(), Balance: a.balance, Created: instant(a.created)}
}

// parentID is the id of a's parent, "" for a top-level account.
func (a *account) parentID() AccountID {
	if a.parent == nil {
		return ""
	}
	return a.parent.id
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

// Domain tags, the first field of each canonical encoding, so that a bank
// signature over a receipt can never pass for an owner's over a request.
const (
	transferTag = "tycoongrid-transfer-v1"
	receiptTag  = "tycoongrid-receipt-v1"
)

// SigningBytes returns the canonical bytes the owner signs.
func (r *TransferRequest) SigningBytes() []byte {
	p := make([]byte, 0, 5*8+len(transferTag)+len(r.From)+len(r.To)+8+len(r.Nonce))
	p = appendField(p, transferTag)
	p = appendField(p, string(r.From))
	p = appendField(p, string(r.To))
	p = appendAmount(p, r.Amount)
	return appendField(p, r.Nonce)
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
	// len(time.RFC3339Nano) bounds the formatted UTC time of any four-digit year.
	p := make([]byte, 0, 6*8+len(receiptTag)+len(r.TransferID)+len(r.From)+len(r.To)+8+len(time.RFC3339Nano))
	p = appendField(p, receiptTag)
	p = appendField(p, r.TransferID)
	p = appendField(p, string(r.From))
	p = appendField(p, string(r.To))
	p = appendAmount(p, r.Amount)
	// The time's length is known once it is formatted: reserve the prefix,
	// format after it, then fill it in.
	at := len(p)
	p = r.At.UTC().AppendFormat(binary.BigEndian.AppendUint64(p, 0), time.RFC3339Nano)
	binary.BigEndian.PutUint64(p[at:], uint64(len(p)-at-8))
	return p
}

// appendField appends one field of a canonical encoding: its length as 8
// bytes big-endian, then its bytes.
func appendField(p []byte, s string) []byte {
	p = binary.BigEndian.AppendUint64(p, uint64(len(s)))
	return append(p, s...)
}

// appendAmount appends an amount as an 8-byte field holding its two's
// complement big-endian.
func appendAmount(p []byte, a Amount) []byte {
	return binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64(p, 8), uint64(a))
}

// issued is the facts a receipt states, as the bank signs them (Bank.receipt).
// The signature is not kept: Ed25519 signing is deterministic (RFC 8032
// §5.1.6) and the bank's key is fixed for its life, so signing the facts again
// gives the bytes first issued. A transfer's facts live in its ledger line;
// an issued value is kept (Bank.kept) only for a receipt that has no line: one
// whose line the retention trim dropped, or one restored from a snapshot.
type issued struct {
	from, to *account
	amount   Amount
	at       int64 // Unix nanoseconds
}

// line is one ledger entry as the bank keeps it, 56 bytes: its accounts by
// pointer (from is nil for a deposit), its time in Unix nanoseconds and its
// kind as a one-byte code. Its Seq is its place in the ledger. History
// expands it into an Entry. A signed transfer's line is its receipt's record
// too: its memo slot holds the nonce, the same string as the receipts map's
// key, and its Entry reads Memo "".
type line struct {
	from, to *account
	amount   Amount
	memo     string
	at       int64
	kind     lineKind
}

// lineKind is a line's entry kind as one byte. The four EntryKinds map to
// their own codes, and a signed transfer has a fifth: its Entry's kind is
// EntryTransfer, like an owner's transfer move's, but its memo slot holds its
// nonce.
type lineKind byte

const (
	lineDeposit lineKind = iota
	lineTransfer
	lineRefund
	lineCharge
	lineSigned
)

// entryKinds is the EntryKind of each lineKind.
var entryKinds = [...]EntryKind{
	lineDeposit:  EntryDeposit,
	lineTransfer: EntryTransfer,
	lineRefund:   EntryRefund,
	lineCharge:   EntryCharge,
	lineSigned:   EntryTransfer,
}

// lineKindOf is the code a move, or a logged or snapshotted line, of kind k
// is kept under; a kind that is not one of the four EntryKinds is an error.
func lineKindOf(k EntryKind) (lineKind, error) {
	switch k {
	case EntryDeposit:
		return lineDeposit, nil
	case EntryTransfer:
		return lineTransfer, nil
	case EntryRefund:
		return lineRefund, nil
	case EntryCharge:
		return lineCharge, nil
	}
	return 0, fmt.Errorf("bank: unknown entry kind %q", k)
}

// keptRef marks a receipts map value that indexes Bank.kept; a value without
// it is the Seq of the receipt's signed-transfer line.
const keptRef = 1 << 63

// Bank is a thread-safe ledger with signed receipts. By default it is purely
// in-memory; AttachDurability (wal.go) journals every mutation to a
// write-ahead log so the bank survives crashes.
type Bank struct {
	mu        sync.Mutex
	id        *pki.Identity
	clock     sim.Clock
	accounts  map[AccountID]*account
	receipts  map[string]uint64 // issued receipts by nonce (a line's Seq, or keptRef|index into kept): the spent nonces, and the idempotent replay
	kept      []issued          // the facts of the receipts that have no ledger line
	ledger    []line
	seq       uint64 // Seq of the newest line; the oldest's is seq-len(ledger)+1
	ledgerCap int    // 0 = unbounded

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

// DefaultLedgerRetention is the ledger cap of a bank that lives long: the
// simulated worlds' and bankd's. The ledger trims at twice its cap, so at
// 56 B a line it holds at most 11.2 MB.
const DefaultLedgerRetention = 100_000

// WithLedgerRetention caps the in-memory ledger at n entries; the oldest
// entries are dropped first. Balances are unaffected — only History is
// truncated. Long simulations produce millions of 10-second CPU
// micro-charges, so the experiment harnesses bound retention.
func WithLedgerRetention(n int) Option {
	return func(b *Bank) { b.ledgerCap = n }
}

// WithTracer does nothing: a transfer's latency exemplar names the span in
// the context TransferContext is given, whatever tracer started it. It keeps
// its signature for the benchmark's callers (ROADMAP item 1(a) deletes it).
func WithTracer(*tracing.Tracer) Option {
	return func(*Bank) {}
}

// New creates a bank whose receipts are signed by identity id.
func New(id *pki.Identity, clock sim.Clock, opts ...Option) *Bank {
	if clock == nil {
		clock = sim.WallClock{}
	}
	b := &Bank{
		id:       id,
		clock:    clock,
		accounts: make(map[AccountID]*account),
		receipts: make(map[string]uint64),
	}
	for _, o := range opts {
		o(b)
	}
	return b
}

// PublicKey returns the key receipts are verified against.
func (b *Bank) PublicKey() ed25519.PublicKey { return b.id.Public() }

// CreateAccount registers a new top-level account owned by owner and returns
// its view, by value like Lookup's: a caller that drops it costs no
// allocation.
func (b *Bank) CreateAccount(id AccountID, owner ed25519.PublicKey) (Account, error) {
	return b.createAccount(id, owner, nil)
}

// CreateSubAccount registers child under parent, owned by owner (typically
// the broker's key), and returns its view by value. The paper's broker
// creates one sub-account per verified transfer token and funds host
// accounts from it.
func (b *Bank) CreateSubAccount(parent AccountID, child string, owner ed25519.PublicKey) (Account, error) {
	b.mu.Lock()
	p, ok := b.accounts[parent]
	b.mu.Unlock()
	if !ok {
		return Account{}, fmt.Errorf("%w: parent %q", ErrNoAccount, parent)
	}
	return b.createAccount(AccountID(string(parent)+"/"+child), owner, p)
}

// createAccount registers id under parent (nil for a top-level account).
// Accounts are never removed, so a parent found before the lock was retaken
// is still the bank's.
func (b *Bank) createAccount(id AccountID, owner ed25519.PublicKey, parent *account) (Account, error) {
	if id == "" {
		return Account{}, errors.New("bank: empty account id")
	}
	if len(owner) != ed25519.PublicKeySize {
		return Account{}, fmt.Errorf("bank: account %q: owner key has %d bytes, want %d",
			id, len(owner), ed25519.PublicKeySize)
	}
	rec, wait, err := b.createAccountLocked(id, (*[ed25519.PublicKeySize]byte)(owner), parent)
	if err != nil {
		return Account{}, err
	}
	if err := commitWait(wait); err != nil {
		return Account{}, err
	}
	return rec.view(), nil
}

func (b *Bank) createAccountLocked(id AccountID, owner *[ed25519.PublicKeySize]byte, parent *account) (account, func() error, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.accounts[id]; ok {
		return account{}, nil, fmt.Errorf("%w: %q", ErrDuplicateAccount, id)
	}
	a := &account{id: id, owner: owner, parent: parent, created: b.clock.Now().UnixNano()}
	b.accounts[id] = a
	mAccounts.Inc()
	return *a, b.stage(func() []byte { return encCreateAccount(a) }), nil
}

// Lookup returns the account's view as of now.
func (b *Bank) Lookup(id AccountID) (Account, error) {
	rec, ok := b.record(id)
	if !ok {
		return Account{}, fmt.Errorf("%w: %q", ErrNoAccount, id)
	}
	return rec.view(), nil
}

// record copies id's record under b.mu.
func (b *Bank) record(id AccountID) (account, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	a, ok := b.accounts[id]
	if !ok {
		return account{}, false
	}
	return *a, true
}

// Balance returns the current balance of id.
func (b *Bank) Balance(id AccountID) (Amount, error) {
	rec, ok := b.record(id)
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNoAccount, id)
	}
	return rec.balance, nil
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
	nb, err := addChecked(a.balance, amount)
	if err != nil {
		return nil, err
	}
	a.balance = nb
	b.minted += amount
	at := b.clock.Now().UnixNano()
	b.appendEntryAt(lineDeposit, nil, a, amount, memo, at)
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
//
// The bank keeps a receipt's facts, not its signature: a replay signs the
// stored facts again, and since Ed25519 signing is deterministic and the
// bank's key never changes, it answers the receipt first issued byte for
// byte.
//
// No signature work runs under b.mu. A transfer takes it twice:
// admit finds the accounts and stamps the time, then the owner signature is
// verified with no lock held, then commit decides the nonce and the funds and
// applies the transfer (or finds the facts a replay answers), and then the
// receipt is signed with no lock held. So concurrent transfers verify and
// sign on as many cores as they have, and a refused request signs nothing.
func (b *Bank) Transfer(req TransferRequest) (Receipt, error) {
	return b.TransferContext(context.Background(), req)
}

// TransferContext is Transfer on behalf of the span in ctx: when that span
// records, the transfer's latency lands in its bucket with the span's trace
// as the bucket's exemplar.
func (b *Bank) TransferContext(ctx context.Context, req TransferRequest) (Receipt, error) {
	if req.Amount <= 0 {
		return Receipt{}, ErrNonPositive
	}
	if req.Nonce == "" {
		return Receipt{}, errors.New("bank: empty transfer nonce")
	}
	start := time.Now()
	facts, owner, err := b.admit(req)
	if err != nil {
		return Receipt{}, err
	}
	verifyStart := time.Now()
	if !pki.Verify(owner, req.SigningBytes(), req.Sig) {
		mRejectedSigs.Inc()
		return Receipt{}, ErrBadAuthorization
	}
	commitStart := time.Now()
	facts, wait, err := b.commit(req.Nonce, facts)
	if err != nil {
		return Receipt{}, err
	}
	signStart := time.Now()
	r := b.receipt(req.Nonce, facts)
	walStart := time.Now()
	if err := commitWait(wait); err != nil {
		return Receipt{}, err
	}
	end := time.Now()
	mPhaseLedger.Observe((verifyStart.Sub(start) + signStart.Sub(commitStart)).Seconds())
	mPhaseVerify.Observe(commitStart.Sub(verifyStart).Seconds())
	mPhaseSign.Observe(walStart.Sub(signStart).Seconds())
	mPhaseWAL.Observe(end.Sub(walStart).Seconds())
	if s := tracing.SpanFromContext(ctx); s.Recording() {
		mTransferSeconds.ObserveExemplar(end.Sub(start).Seconds(), s.Context().TraceID.String())
	} else {
		mTransferSeconds.Observe(end.Sub(start).Seconds())
	}
	return r, nil
}

// admit is a transfer's first step under b.mu: it finds both accounts, takes
// the owner key the signature must verify against, and stamps the transfer's
// time. The clock is read here, under the lock, because a simulated clock is
// not safe for concurrent use. Accounts are never removed, so the pointers
// stay the accounts commit mutates.
func (b *Bank) admit(req TransferRequest) (issued, ed25519.PublicKey, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	from, ok := b.accounts[req.From]
	if !ok {
		return issued{}, nil, fmt.Errorf("%w: %q", ErrNoAccount, req.From)
	}
	to, ok := b.accounts[req.To]
	if !ok {
		return issued{}, nil, fmt.Errorf("%w: %q", ErrNoAccount, req.To)
	}
	if from == to {
		// Debit then credit of one account would store the credit over the
		// debit and mint the amount; refused before the nonce is spent.
		return issued{}, nil, fmt.Errorf("%w: %q", ErrSameAccount, req.From)
	}
	return issued{from: from, to: to, amount: req.Amount, at: b.clock.Now().UnixNano()}, from.owner[:], nil
}

// commit is a transfer's last step under b.mu, given the facts of its verified
// request: the nonce, the funds and the credit are decided here, against the
// state of this moment, and only then are the facts entered in the ledger,
// the nonce mapped to their line and the record staged. A replay returns the
// stored facts instead of t.
func (b *Bank) commit(nonce string, t issued) (issued, func() error, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if ref, ok := b.receipts[nonce]; ok {
		if prev := b.facts(ref); prev.from == t.from && prev.to == t.to && prev.amount == t.amount {
			// Already applied: answer the stored facts, but not before the
			// original's record is durable — it may still be waiting on its
			// fsync, and a receipt for a transfer recovery would not contain
			// is money the payer never lost.
			return prev, b.barrier(), nil
		}
		return issued{}, nil, ErrNonceReused
	}
	if t.from.balance < t.amount {
		return issued{}, nil, fmt.Errorf("%w: %q has %v, needs %v",
			ErrInsufficientFunds, t.from.id, t.from.balance, t.amount)
	}
	nb, err := addChecked(t.to.balance, t.amount)
	if err != nil {
		return issued{}, nil, err
	}
	t.from.balance -= t.amount
	t.to.balance = nb
	mTransfers.Inc()
	b.appendSigned(nonce, t)
	return t, b.stage(func() []byte { return encTransfer(nonce, t) }), nil
}

// appendSigned enters the signed transfer nonce names in the ledger, its
// facts in its line, and maps the nonce to that line; callers hold b.mu.
func (b *Bank) appendSigned(nonce string, t issued) {
	b.appendEntryAt(lineSigned, t.from, t.to, t.amount, nonce, t.at)
	b.receipts[nonce] = b.seq
}

// facts is the issued receipt ref names, a receipts map value; callers hold
// b.mu. A ref without keptRef is the Seq of a line still in the ledger: the
// trim moves a signed transfer's facts to kept before it drops the line.
func (b *Bank) facts(ref uint64) issued {
	if ref&keptRef != 0 {
		return b.kept[ref&^keptRef]
	}
	return b.ledger[ref-(b.seq-uint64(len(b.ledger))+1)].facts()
}

// facts is the issued receipt a signed transfer's line records.
func (l *line) facts() issued {
	return issued{from: l.from, to: l.to, amount: l.amount, at: l.at}
}

// receipt is the bank-signed receipt of the transfer nonce names, built from
// its facts; callers do not hold b.mu.
func (b *Bank) receipt(nonce string, t issued) Receipt {
	r := Receipt{TransferID: nonce, From: t.from.id, To: t.to.id, Amount: t.amount, At: instant(t.at)}
	r.BankSig = b.id.Sign(r.SigningBytes())
	return r
}

// instant is the time a line or receipt stamped at ns carries: whole
// nanoseconds in UTC with no monotonic reading, the same before and after a
// restart.
func instant(ns int64) time.Time { return time.Unix(0, ns).UTC() }

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
	code, err := lineKindOf(kind)
	if err != nil {
		return err
	}
	waits, err := b.moveBatchLocked(owner.Public(), legs, code)
	// The first wait syncs everything staged so far, so the rest return at
	// once; a log failure on an earlier leg outranks a later leg's refusal.
	for _, wait := range waits {
		if werr := wait(); werr != nil {
			return werr
		}
	}
	return err
}

func (b *Bank) moveBatchLocked(owner ed25519.PublicKey, legs []Move, kind lineKind) ([]func() error, error) {
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
func (b *Bank) applyMove(owner ed25519.PublicKey, mv Move, kind lineKind) (func() error, error) {
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
	if !ed25519.PublicKey(f.owner[:]).Equal(owner) {
		return nil, ErrBadAuthorization
	}
	if f.balance < mv.Amount {
		return nil, fmt.Errorf("%w: %q has %v, needs %v", ErrInsufficientFunds, mv.From, f.balance, mv.Amount)
	}
	nb, err := addChecked(t.balance, mv.Amount)
	if err != nil {
		return nil, err
	}
	f.balance -= mv.Amount
	t.balance = nb
	at := b.clock.Now().UnixNano()
	b.appendEntryAt(kind, f, t, mv.Amount, mv.Memo, at)
	return b.stage(func() []byte { return encMove(entryKinds[kind], mv.From, mv.To, mv.Amount, mv.Memo, at) }), nil
}

// VerifyReceipt checks a receipt's bank signature against bankKey.
func VerifyReceipt(bankKey ed25519.PublicKey, r Receipt) bool {
	return pki.Verify(bankKey, r.SigningBytes(), r.BankSig)
}

// appendEntryAt records a ledger line stamped at (Unix nanoseconds); callers
// hold b.mu. WAL replay passes the originally recorded time so recovered
// ledgers match the pre-crash ones.
func (b *Bank) appendEntryAt(kind lineKind, from, to *account, amount Amount, memo string, at int64) {
	b.seq++
	b.ledger = append(b.ledger, line{from: from, to: to, kind: kind, amount: amount, memo: memo, at: at})
	// Trim lazily at 2x the cap so the copy cost amortizes to O(1). A signed
	// transfer's receipt outlives its line: its facts move to kept, which
	// grows once for all of them.
	if b.ledgerCap > 0 && len(b.ledger) > 2*b.ledgerCap {
		drop := len(b.ledger) - b.ledgerCap
		signed := 0
		for i := range b.ledger[:drop] {
			if b.ledger[i].kind == lineSigned {
				signed++
			}
		}
		b.kept = slices.Grow(b.kept, signed)
		for i := range b.ledger[:drop] {
			if l := &b.ledger[i]; l.kind == lineSigned {
				b.keep(l.memo, l.facts())
			}
		}
		b.ledger = append(b.ledger[:0], b.ledger[drop:]...)
	}
}

// keep stores the facts of the receipt nonce names outside the ledger;
// callers hold b.mu.
func (b *Bank) keep(nonce string, t issued) {
	b.receipts[nonce] = keptRef | uint64(len(b.kept))
	b.kept = append(b.kept, t)
}

// History returns the ledger entries that touch id, oldest first.
func (b *Bank) History(id AccountID) []Entry {
	b.mu.Lock()
	defer b.mu.Unlock()
	a, ok := b.accounts[id]
	if !ok {
		return nil
	}
	first := b.seq - uint64(len(b.ledger)) + 1
	var out []Entry
	for i := range b.ledger {
		if l := &b.ledger[i]; l.from == a || l.to == a {
			out = append(out, l.entry(first+uint64(i)))
		}
	}
	return out
}

// entry is the Entry l is, given its Seq.
func (l *line) entry(seq uint64) Entry {
	e := Entry{Seq: seq, Kind: entryKinds[l.kind], To: l.to.id, Amount: l.amount, Memo: l.entryMemo(), At: instant(l.at)}
	if l.from != nil {
		e.From = l.from.id
	}
	return e
}

// entryMemo is l's Entry's memo: "" for a signed transfer, whose memo slot
// holds its nonce.
func (l *line) entryMemo() string {
	if l.kind == lineSigned {
		return ""
	}
	return l.memo
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
		total += a.balance
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
