package marketplane

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync/atomic"

	"tycoongrid/internal/bank"
	"tycoongrid/internal/metrics"
	"tycoongrid/internal/pki"
	keyshard "tycoongrid/internal/shard"
	"tycoongrid/internal/sim"
)

// TwoPhaseStage names the instants of the cross-shard transfer protocol at
// which a fail-point hook runs. The hook fires after the named step has
// taken effect.
type TwoPhaseStage string

// Fail-point stages.
const (
	StagePrepared  TwoPhaseStage = "prepared"  // debit held at source shard
	StageCommitted TwoPhaseStage = "committed" // commit decision recorded
	StageCredited  TwoPhaseStage = "credited"  // destination account credited
)

// Errors returned by ShardedBank.
var (
	ErrShardDown = errors.New("marketplane: bank shard is down")
	// ErrInDoubt reports a transfer whose commit decision was recorded but
	// whose completion was interrupted by a shard crash: the money is safe
	// in a committed hold and will reach the destination when the involved
	// shards recover (Resolve) — the caller must not retry.
	ErrInDoubt = errors.New("marketplane: transfer committed but interrupted; completes on recovery")
)

// bankShard is one accounting partition: an ordinary bank.Bank plus an
// availability flag. A "crash" makes the shard unavailable; its state —
// including prepared holds and the credited-set, GridBank's durable
// transaction journal — survives to recovery, like a write-ahead log on disk
// survives a process crash.
type bankShard struct {
	bank  *bank.Bank
	down  atomic.Bool
	gDown *metrics.Gauge
}

func (s *bankShard) isDown() bool { return s.down.Load() }

// ShardedBank partitions accounts across N bank shards by FNV-1a hash of the
// account id, GridBank's distributed Grid Bank Servers in miniature.
// Transfers within one shard take that shard's single-lock fast path —
// byte-identical behaviour to an unsharded bank.Bank, which is what makes
// the 1-shard configuration bit-for-bit compatible. Transfers between shards
// run the two-phase protocol of bank/twophase.go, coordinated by the calling
// goroutine with the commit decision logged at the source shard, so there is
// no central coordinator lock. Safe for concurrent use.
type ShardedBank struct {
	id     *pki.Identity
	clock  sim.Clock
	shards []*bankShard
	txSeq  atomic.Uint64

	failpoint func(stage TwoPhaseStage, tx string)
}

// ShardedOption customizes a ShardedBank.
type ShardedOption func(*ShardedBank)

// WithFailpoint installs a hook called after each stage of every cross-shard
// transfer. Tests crash shards from inside the hook to exercise recovery at
// exact protocol instants.
func WithFailpoint(fn func(stage TwoPhaseStage, tx string)) ShardedOption {
	return func(sb *ShardedBank) { sb.failpoint = fn }
}

// NewShardedBank creates a bank partitioned across n shards (minimum 1).
// Every shard signs receipts with the same identity, so clients verify
// against one key regardless of where an account lives. bankOpts apply to
// each shard (ledger retention, tracer).
func NewShardedBank(id *pki.Identity, clock sim.Clock, n int, bankOpts []bank.Option, opts ...ShardedOption) *ShardedBank {
	if n < 1 {
		n = 1
	}
	if clock == nil {
		clock = sim.WallClock{}
	}
	sb := &ShardedBank{id: id, clock: clock, shards: make([]*bankShard, n)}
	for i := range sb.shards {
		sb.shards[i] = &bankShard{
			bank:  bank.New(id, clock, bankOpts...),
			gDown: mBankShardDown.With(strconv.Itoa(i)),
		}
	}
	for _, o := range opts {
		o(sb)
	}
	return sb
}

// PublicKey returns the key every shard's receipts verify against.
func (sb *ShardedBank) PublicKey() ed25519.PublicKey { return sb.id.Public() }

// ShardCount returns the number of bank shards.
func (sb *ShardedBank) ShardCount() int { return len(sb.shards) }

// ShardFor returns the shard index owning an account id.
func (sb *ShardedBank) ShardFor(id bank.AccountID) int {
	return keyshard.Of(string(id), len(sb.shards))
}

func (sb *ShardedBank) shardOf(id bank.AccountID) *bankShard {
	return sb.shards[sb.ShardFor(id)]
}

func (sb *ShardedBank) fail(stage TwoPhaseStage, tx string) {
	if sb.failpoint != nil {
		sb.failpoint(stage, tx)
	}
}

// nextTx returns a coordinator-unique transaction id. The "x" prefix keeps
// the namespace disjoint from client-chosen transfer nonces.
func (sb *ShardedBank) nextTx() string {
	return fmt.Sprintf("x%09d", sb.txSeq.Add(1))
}

// CreateAccount registers a top-level account on its home shard.
func (sb *ShardedBank) CreateAccount(id bank.AccountID, owner ed25519.PublicKey) (*bank.Account, error) {
	s := sb.shardOf(id)
	if s.isDown() {
		return nil, fmt.Errorf("%w: shard %d", ErrShardDown, sb.ShardFor(id))
	}
	return s.bank.CreateAccount(id, owner)
}

// CreateSubAccount registers "parent/child" on the child's home shard. The
// parent is verified on its own shard first; in a sharded deployment the two
// may differ, so the child shard skips the local parent check.
func (sb *ShardedBank) CreateSubAccount(parent bank.AccountID, child string, owner ed25519.PublicKey) (*bank.Account, error) {
	ps := sb.shardOf(parent)
	if ps.isDown() {
		return nil, fmt.Errorf("%w: shard %d", ErrShardDown, sb.ShardFor(parent))
	}
	childID := bank.AccountID(string(parent) + "/" + child)
	cs := sb.shardOf(childID)
	if ps == cs {
		return ps.bank.CreateSubAccount(parent, child, owner)
	}
	if _, err := ps.bank.Lookup(parent); err != nil {
		return nil, err
	}
	if cs.isDown() {
		return nil, fmt.Errorf("%w: shard %d", ErrShardDown, sb.ShardFor(childID))
	}
	return cs.bank.CreateChildAccount(parent, child, owner)
}

// Deposit credits an account on its home shard.
func (sb *ShardedBank) Deposit(id bank.AccountID, amount bank.Amount, memo string) error {
	s := sb.shardOf(id)
	if s.isDown() {
		return fmt.Errorf("%w: shard %d", ErrShardDown, sb.ShardFor(id))
	}
	return s.bank.Deposit(id, amount, memo)
}

// Lookup returns an account record from its home shard.
func (sb *ShardedBank) Lookup(id bank.AccountID) (bank.Account, error) {
	s := sb.shardOf(id)
	if s.isDown() {
		return bank.Account{}, fmt.Errorf("%w: shard %d", ErrShardDown, sb.ShardFor(id))
	}
	return s.bank.Lookup(id)
}

// Balance returns an account balance from its home shard.
func (sb *ShardedBank) Balance(id bank.AccountID) (bank.Amount, error) {
	a, err := sb.Lookup(id)
	if err != nil {
		return 0, err
	}
	return a.Balance, nil
}

// History returns the ledger entries touching id, from its home shard.
func (sb *ShardedBank) History(id bank.AccountID) []bank.Entry {
	s := sb.shardOf(id)
	if s.isDown() {
		return nil
	}
	return s.bank.History(id)
}

// MoveInternal transfers between two same-owner accounts on the owner's
// behalf. Same shard: the single-lock fast path. Different shards: the
// two-phase protocol.
func (sb *ShardedBank) MoveInternal(owner *pki.Identity, from, to bank.AccountID, amount bank.Amount, kind bank.EntryKind, memo string) error {
	src, dst := sb.shardOf(from), sb.shardOf(to)
	if src.isDown() {
		return fmt.Errorf("%w: shard %d", ErrShardDown, sb.ShardFor(from))
	}
	if src == dst {
		err := src.bank.MoveInternal(owner, from, to, amount, kind, memo)
		if err == nil {
			mXferLocal.Inc()
		}
		return err
	}
	// The destination must exist before the debit is prepared: a committed
	// hold with nowhere to land would strand money in transit forever.
	if dst.isDown() {
		return fmt.Errorf("%w: shard %d", ErrShardDown, sb.ShardFor(to))
	}
	if _, err := dst.bank.Lookup(to); err != nil {
		return err
	}
	tx := sb.nextTx()
	if err := src.bank.PrepareDebit(owner, from, to, amount, tx); err != nil {
		return err
	}
	return sb.completeCross(src, dst, to, amount, tx, memo)
}

// MoveBatch applies the legs in order through MoveInternal, each on its own
// shards, stopping at the first that fails (bank.Bank.MoveBatch's contract,
// without the shared lock: the legs of one batch may span shards).
func (sb *ShardedBank) MoveBatch(owner *pki.Identity, legs []bank.Move, kind bank.EntryKind) error {
	for _, mv := range legs {
		if err := sb.MoveInternal(owner, mv.From, mv.To, mv.Amount, kind, mv.Memo); err != nil {
			return err
		}
	}
	return nil
}

// Transfer executes an owner-signed transfer and returns a bank-signed
// receipt. Cross-shard requests are prepared under the request's own nonce,
// so replay protection and the two-phase hold share one identifier.
func (sb *ShardedBank) Transfer(req bank.TransferRequest) (bank.Receipt, error) {
	src, dst := sb.shardOf(req.From), sb.shardOf(req.To)
	if src.isDown() {
		return bank.Receipt{}, fmt.Errorf("%w: shard %d", ErrShardDown, sb.ShardFor(req.From))
	}
	if src == dst {
		r, err := src.bank.Transfer(req)
		if err == nil {
			mXferLocal.Inc()
		}
		return r, err
	}
	// The destination must exist before the debit is prepared: a committed
	// hold with nowhere to land would strand money in transit forever.
	if dst.isDown() {
		return bank.Receipt{}, fmt.Errorf("%w: shard %d", ErrShardDown, sb.ShardFor(req.To))
	}
	if _, err := dst.bank.Lookup(req.To); err != nil {
		return bank.Receipt{}, err
	}
	if err := src.bank.PrepareTransfer(req); err != nil {
		return bank.Receipt{}, err
	}
	if err := sb.completeCross(src, dst, req.To, req.Amount, req.Nonce, ""); err != nil {
		return bank.Receipt{}, err
	}
	r := bank.Receipt{
		TransferID: req.Nonce,
		From:       req.From,
		To:         req.To,
		Amount:     req.Amount,
		At:         sb.clock.Now(),
	}
	r.BankSig = sb.id.Sign(r.SigningBytes())
	return r, nil
}

// completeCross drives a prepared cross-shard transfer to completion:
// commit decision at the source, idempotent credit at the destination,
// finalize, prune. Fail-point hooks run after each stage; when a hook
// crashes an involved shard the protocol stops and reports how the transfer
// will conclude (abort before commit, completion-on-recovery after).
func (sb *ShardedBank) completeCross(src, dst *bankShard, to bank.AccountID, amount bank.Amount, tx, memo string) error {
	m2pcPrepares.Inc()
	sb.fail(StagePrepared, tx)
	if src.isDown() {
		// Decision never recorded: recovery aborts the hold.
		return fmt.Errorf("%w: tx %s before commit", ErrShardDown, tx)
	}
	if dst.isDown() {
		// Abort immediately: the money returns to the source now rather
		// than waiting for the destination shard to come back.
		if err := src.bank.AbortDebit(tx); err == nil {
			m2pcAborts.Inc()
		}
		return fmt.Errorf("%w: tx %s aborted, destination down", ErrShardDown, tx)
	}
	if err := src.bank.MarkCommitted(tx); err != nil {
		return err
	}
	m2pcCommits.Inc()
	sb.fail(StageCommitted, tx)
	if src.isDown() || dst.isDown() {
		return fmt.Errorf("%w (tx %s)", ErrInDoubt, tx)
	}
	if err := dst.bank.CreditPrepared(to, amount, tx, memo); err != nil {
		return fmt.Errorf("marketplane: crediting committed tx %s: %w", tx, err)
	}
	sb.fail(StageCredited, tx)
	if src.isDown() {
		// Credit landed; the committed hold finalizes on recovery, and the
		// idempotent credited-set absorbs the replay.
		return fmt.Errorf("%w (tx %s)", ErrInDoubt, tx)
	}
	if err := src.bank.FinalizeDebit(tx); err != nil {
		return err
	}
	dst.bank.ForgetCredit(tx)
	mXferCross.Inc()
	return nil
}

// CrashShard makes shard i unavailable. Its account state and transaction
// journal (holds, credited-set) persist, as GridBank's durable ledger would.
func (sb *ShardedBank) CrashShard(i int) error {
	if i < 0 || i >= len(sb.shards) {
		return fmt.Errorf("marketplane: no bank shard %d", i)
	}
	sb.shards[i].down.Store(true)
	sb.shards[i].gDown.Set(1)
	return nil
}

// ShardDown reports whether shard i is crashed.
func (sb *ShardedBank) ShardDown(i int) bool {
	return i >= 0 && i < len(sb.shards) && sb.shards[i].isDown()
}

// RecoverShard brings shard i back and resolves every in-doubt transfer that
// can now make progress: uncommitted holds on the recovered shard abort
// (their coordinator died before a decision), committed holds anywhere push
// their credit — idempotently — and finalize.
func (sb *ShardedBank) RecoverShard(i int) error {
	if i < 0 || i >= len(sb.shards) {
		return fmt.Errorf("marketplane: no bank shard %d", i)
	}
	if !sb.shards[i].isDown() {
		return fmt.Errorf("marketplane: bank shard %d is not down", i)
	}
	sb.shards[i].down.Store(false)
	sb.shards[i].gDown.Set(0)
	return sb.Resolve()
}

// Resolve walks the holds of every available shard and completes what it
// can: committed holds whose destination shard is up are credited
// (idempotent) and finalized; uncommitted holds on shards that crashed and
// recovered were abandoned before a decision, so they abort. Uncommitted
// holds are aborted here for every up shard — callers run Resolve from
// recovery events, never concurrently with in-flight transfers.
func (sb *ShardedBank) Resolve() error {
	var firstErr error
	for _, src := range sb.shards {
		if src.isDown() {
			continue
		}
		for _, h := range src.bank.Holds() {
			if !h.Committed {
				if err := src.bank.AbortDebit(h.TX); err != nil {
					if firstErr == nil {
						firstErr = err
					}
				} else {
					m2pcAborts.Inc()
				}
				continue
			}
			dst := sb.shardOf(h.To)
			if dst.isDown() {
				continue // retried when that shard recovers
			}
			if err := dst.bank.CreditPrepared(h.To, h.Amount, h.TX, "recovered"); err != nil {
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			if err := src.bank.FinalizeDebit(h.TX); err != nil {
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			dst.bank.ForgetCredit(h.TX)
			m2pcResolved.Inc()
		}
	}
	return firstErr
}

// Holds returns every outstanding hold across all shards, sorted by
// transaction id — empty once all transfers have settled and every crash
// has been recovered ("no orphaned prepares").
func (sb *ShardedBank) Holds() []bank.Hold {
	var out []bank.Hold
	for _, s := range sb.shards {
		out = append(out, s.bank.Holds()...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TX < out[j].TX })
	return out
}

// HeldTotal returns the money parked in holds across all shards.
func (sb *ShardedBank) HeldTotal() bank.Amount {
	var total bank.Amount
	for _, s := range sb.shards {
		total += s.bank.HeldTotal()
	}
	return total
}

// TotalMoney returns the money supply: all balances plus all in-transit
// holds, across every shard (crashed ones included — their ledgers are
// durable). A committed hold whose credit has already landed at the
// destination is excluded: that money is counted in the destination balance,
// and the hold is only the finalize marker awaiting recovery. This is the
// conserved quantity: constant under any transfer interleaving and any crash
// schedule, changed only by Deposit.
func (sb *ShardedBank) TotalMoney() bank.Amount {
	var total bank.Amount
	for _, s := range sb.shards {
		total += s.bank.TotalMoney()
	}
	for _, s := range sb.shards {
		for _, h := range s.bank.Holds() {
			if h.Committed && sb.shardOf(h.To).bank.CreditRecorded(h.TX) {
				continue
			}
			total += h.Amount
		}
	}
	return total
}

// Accounts returns the ids of all accounts across shards, unordered.
func (sb *ShardedBank) Accounts() []bank.AccountID {
	var out []bank.AccountID
	for _, s := range sb.shards {
		out = append(out, s.bank.Accounts()...)
	}
	return out
}
