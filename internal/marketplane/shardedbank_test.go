package marketplane

import (
	"errors"
	"fmt"
	"testing"

	"tycoongrid/internal/bank"
	"tycoongrid/internal/fault/failpoint"
	"tycoongrid/internal/pki"
	"tycoongrid/internal/rng"
	"tycoongrid/internal/sim"
)

func benchIdentity(t *testing.T) *pki.Identity {
	t.Helper()
	ca, err := pki.NewDeterministicCA("/CN=CA", [32]byte{20})
	if err != nil {
		t.Fatal(err)
	}
	id, err := ca.IssueDeterministic("/CN=Op", [32]byte{21})
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// shardedAccounts creates n accounts spread across the bank's shards and
// returns their ids; each is funded with 100 credits.
func shardedAccounts(t *testing.T, sb *ShardedBank, op *pki.Identity, n int) []bank.AccountID {
	t.Helper()
	ids := make([]bank.AccountID, n)
	for i := range ids {
		ids[i] = bank.AccountID(fmt.Sprintf("acct-%03d", i))
		if _, err := sb.CreateAccount(ids[i], op.Public()); err != nil {
			t.Fatal(err)
		}
		if err := sb.Deposit(ids[i], 100*bank.Credit, "seed"); err != nil {
			t.Fatal(err)
		}
	}
	return ids
}

// A 1-shard ShardedBank must behave exactly like a plain bank.Bank: every
// operation takes the same single-lock fast path, so balances, receipts and
// ledger histories agree entry for entry.
func TestOneShardMatchesPlainBank(t *testing.T) {
	op := benchIdentity(t)
	plain := bank.New(op, sim.NewEngine())
	sharded := NewShardedBank(op, sim.NewEngine(), 1, nil)

	for _, id := range []bank.AccountID{"u1", "u2", "esc"} {
		if _, err := plain.CreateAccount(id, op.Public()); err != nil {
			t.Fatal(err)
		}
		if _, err := sharded.CreateAccount(id, op.Public()); err != nil {
			t.Fatal(err)
		}
	}
	ops := func(deposit func(bank.AccountID, bank.Amount, string) error,
		move func(*pki.Identity, bank.AccountID, bank.AccountID, bank.Amount, bank.EntryKind, string) error) error {
		if err := deposit("u1", 50*bank.Credit, "grant"); err != nil {
			return err
		}
		if err := move(op, "u1", "esc", 20*bank.Credit, bank.EntryTransfer, "fund"); err != nil {
			return err
		}
		return move(op, "esc", "u2", 5*bank.Credit, bank.EntryCharge, "charge")
	}
	if err := ops(plain.Deposit, plain.MoveInternal); err != nil {
		t.Fatal(err)
	}
	if err := ops(sharded.Deposit, sharded.MoveInternal); err != nil {
		t.Fatal(err)
	}
	for _, id := range []bank.AccountID{"u1", "u2", "esc"} {
		pb, _ := plain.Balance(id)
		sb, err := sharded.Balance(id)
		if err != nil || pb != sb {
			t.Fatalf("%s: plain %v vs sharded %v (%v)", id, pb, sb, err)
		}
		ph, sh := plain.History(id), sharded.History(id)
		if len(ph) != len(sh) {
			t.Fatalf("%s history length %d vs %d", id, len(ph), len(sh))
		}
		for i := range ph {
			if ph[i] != sh[i] {
				t.Fatalf("%s history[%d]: %+v vs %+v", id, i, ph[i], sh[i])
			}
		}
	}
	if plain.TotalMoney() != sharded.TotalMoney() {
		t.Fatalf("total: %v vs %v", plain.TotalMoney(), sharded.TotalMoney())
	}
}

func TestCrossShardMoveAndTransfer(t *testing.T) {
	op := benchIdentity(t)
	sb := NewShardedBank(op, sim.NewEngine(), 4, nil)
	ids := shardedAccounts(t, sb, op, 8)

	// Find a pair on different shards.
	var from, to bank.AccountID
	for _, a := range ids {
		for _, b := range ids {
			if sb.ShardFor(a) != sb.ShardFor(b) {
				from, to = a, b
			}
		}
	}
	if from == "" {
		t.Fatal("no cross-shard pair found")
	}
	total := sb.TotalMoney()
	if err := sb.MoveInternal(op, from, to, 30*bank.Credit, bank.EntryTransfer, "x"); err != nil {
		t.Fatal(err)
	}
	if got, _ := sb.Balance(to); got != 130*bank.Credit {
		t.Fatalf("dest = %v, want 130", got)
	}
	if sb.TotalMoney() != total {
		t.Fatal("cross-shard move changed the money supply")
	}
	if n := len(sb.Holds()); n != 0 {
		t.Fatalf("%d holds left after clean transfer", n)
	}

	req := bank.TransferRequest{From: from, To: to, Amount: 10 * bank.Credit, Nonce: "xfer-1"}
	req.Sig = op.Sign(req.SigningBytes())
	r, err := sb.Transfer(req)
	if err != nil {
		t.Fatal(err)
	}
	if !bank.VerifyReceipt(sb.PublicKey(), r) {
		t.Fatal("cross-shard receipt does not verify")
	}
	if err := sb.MoveInternal(op, from, to, 1000*bank.Credit, bank.EntryTransfer, "x"); !errors.Is(err, bank.ErrInsufficientFunds) {
		t.Fatalf("overdraft = %v, want ErrInsufficientFunds", err)
	}
	if sb.TotalMoney() != total {
		t.Fatal("failed transfer changed the money supply")
	}
}

// A move from an account to itself is refused by the shard that holds it, and
// mints nothing.
func TestShardedSelfMoveRefused(t *testing.T) {
	op := benchIdentity(t)
	sb := NewShardedBank(op, sim.NewEngine(), 4, nil)
	ids := shardedAccounts(t, sb, op, 4)
	total := sb.TotalMoney()
	err := sb.MoveInternal(op, ids[1], ids[1], 3*bank.Credit, bank.EntryCharge, "self")
	if !errors.Is(err, bank.ErrSameAccount) {
		t.Fatalf("self-move: %v, want ErrSameAccount", err)
	}
	if got, _ := sb.Balance(ids[1]); got != 100*bank.Credit || sb.TotalMoney() != total {
		t.Fatalf("balance %v, money supply %v -> %v", got, total, sb.TotalMoney())
	}
	// In a batch it is the failing leg: the one before it stays, the one after
	// it is not tried.
	err = sb.MoveBatch(op, []bank.Move{
		{From: ids[0], To: ids[2], Amount: bank.Credit},
		{From: ids[1], To: ids[1], Amount: bank.Credit},
		{From: ids[0], To: ids[3], Amount: bank.Credit},
	}, bank.EntryCharge)
	if !errors.Is(err, bank.ErrSameAccount) {
		t.Fatalf("batch with a self-move: %v, want ErrSameAccount", err)
	}
	for i, want := range []bank.Amount{99 * bank.Credit, 100 * bank.Credit, 101 * bank.Credit, 100 * bank.Credit} {
		if got, _ := sb.Balance(ids[i]); got != want {
			t.Errorf("%s = %v, want %v", ids[i], got, want)
		}
	}
	if sb.TotalMoney() != total {
		t.Errorf("money supply %v -> %v", total, sb.TotalMoney())
	}
}

// The satellite property test: two-phase transfers conserve money and leave
// no orphaned prepares when shards crash mid-protocol. A seeded failpoint.Points
// stream decides, at every protocol stage of every transfer, whether to
// crash the source or destination shard at exactly that instant; after each
// storm the crashed shards recover and resolve. Money — balances plus holds,
// across all shards — must be constant throughout, and no hold may survive
// the final recovery.
func TestTwoPhaseCrashConservesMoney(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1000003} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			op := benchIdentity(t)
			const shards = 4
			points := failpoint.NewPoints(seed, 0.25) // crash roughly every 4th stage
			pick := rng.New(seed + 1)

			var sb *ShardedBank
			var curSrc, curDst int
			sb = NewShardedBank(op, sim.NewEngine(), shards, nil,
				WithFailpoint(func(stage TwoPhaseStage, tx string) {
					if !points.Hit() {
						return
					}
					victim := curSrc
					if pick.Intn(2) == 1 {
						victim = curDst
					}
					_ = sb.CrashShard(victim)
				}))

			ids := shardedAccounts(t, sb, op, 12)
			want := sb.TotalMoney()
			if want != 12*100*bank.Credit {
				t.Fatalf("deposits = %v", want)
			}

			inDoubt, aborted, clean := 0, 0, 0
			for i := 0; i < 400; i++ {
				from := ids[pick.Intn(len(ids))]
				to := ids[pick.Intn(len(ids))]
				if from == to {
					continue
				}
				curSrc, curDst = sb.ShardFor(from), sb.ShardFor(to)
				amt := bank.Amount(pick.Intn(1000)+1) * bank.Millicredit
				err := sb.MoveInternal(op, from, to, amt, bank.EntryTransfer, "storm")
				switch {
				case err == nil:
					clean++
				case errors.Is(err, ErrInDoubt):
					inDoubt++
				case errors.Is(err, ErrShardDown):
					aborted++
				case errors.Is(err, bank.ErrInsufficientFunds):
					// fine: the storm may drain an account
				default:
					t.Fatalf("transfer %d: %v", i, err)
				}
				// Conservation holds at every instant, crashed shards included:
				// their ledgers and holds are durable.
				if got := sb.TotalMoney(); got != want {
					t.Fatalf("after transfer %d (err=%v): supply %v, want %v", i, err, got, want)
				}
				// Heal before the next iteration so the storm keeps moving.
				for s := 0; s < shards; s++ {
					if sb.ShardDown(s) {
						if err := sb.RecoverShard(s); err != nil {
							t.Fatalf("recover %d: %v", s, err)
						}
					}
				}
				if got := sb.TotalMoney(); got != want {
					t.Fatalf("after recovery %d: supply %v, want %v", i, got, want)
				}
			}
			if inDoubt == 0 || aborted == 0 || clean == 0 {
				t.Fatalf("storm not exercising all outcomes: clean=%d inDoubt=%d aborted=%d",
					clean, inDoubt, aborted)
			}
			if holds := sb.Holds(); len(holds) != 0 {
				t.Fatalf("orphaned prepares after final recovery: %+v", holds)
			}
			var sum bank.Amount
			for _, id := range ids {
				bal, err := sb.Balance(id)
				if err != nil {
					t.Fatal(err)
				}
				sum += bal
			}
			if sum != want {
				t.Fatalf("balances sum to %v, want %v", sum, want)
			}
		})
	}
}

// Crashing the destination after the commit decision must complete the
// transfer on recovery — never abort it — and the idempotent credit must
// absorb the recovery replay.
func TestInDoubtCompletesOnRecovery(t *testing.T) {
	op := benchIdentity(t)
	var sb *ShardedBank
	var crashAt TwoPhaseStage
	var victim int
	sb = NewShardedBank(op, sim.NewEngine(), 4, nil,
		WithFailpoint(func(stage TwoPhaseStage, tx string) {
			if stage == crashAt {
				_ = sb.CrashShard(victim)
			}
		}))
	ids := shardedAccounts(t, sb, op, 8)
	var from, to bank.AccountID
	for _, a := range ids {
		for _, b := range ids {
			if sb.ShardFor(a) != sb.ShardFor(b) {
				from, to = a, b
			}
		}
	}
	want := sb.TotalMoney()

	// Destination down at StageCommitted: money must still arrive.
	crashAt, victim = StageCommitted, sb.ShardFor(to)
	err := sb.MoveInternal(op, from, to, 25*bank.Credit, bank.EntryTransfer, "indoubt")
	if !errors.Is(err, ErrInDoubt) {
		t.Fatalf("err = %v, want ErrInDoubt", err)
	}
	// The credit has not landed yet: the money sits in a committed hold.
	if sb.HeldTotal() != 25*bank.Credit {
		t.Fatalf("held = %v, want 25", sb.HeldTotal())
	}
	if sb.TotalMoney() != want {
		t.Fatalf("supply while in doubt = %v, want %v", sb.TotalMoney(), want)
	}
	crashAt = "" // stop crashing
	if err := sb.RecoverShard(victim); err != nil {
		t.Fatal(err)
	}
	if got, _ := sb.Balance(to); got != 125*bank.Credit {
		t.Fatalf("dest after recovery = %v, want 125", got)
	}
	if got, _ := sb.Balance(from); got != 75*bank.Credit {
		t.Fatalf("src after recovery = %v, want 75", got)
	}
	if sb.TotalMoney() != want || len(sb.Holds()) != 0 {
		t.Fatalf("supply %v (want %v), holds %d", sb.TotalMoney(), want, len(sb.Holds()))
	}

	// Source down at StagePrepared: no decision was recorded, so recovery
	// aborts and the money returns.
	crashAt, victim = StagePrepared, sb.ShardFor(from)
	err = sb.MoveInternal(op, from, to, 10*bank.Credit, bank.EntryTransfer, "abort")
	if !errors.Is(err, ErrShardDown) {
		t.Fatalf("err = %v, want ErrShardDown", err)
	}
	crashAt = ""
	if err := sb.RecoverShard(victim); err != nil {
		t.Fatal(err)
	}
	if got, _ := sb.Balance(from); got != 75*bank.Credit {
		t.Fatalf("src after abort = %v, want 75", got)
	}
	if sb.TotalMoney() != want || len(sb.Holds()) != 0 {
		t.Fatal("abort path broke conservation")
	}
}
