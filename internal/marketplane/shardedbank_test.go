package marketplane

import (
	"fmt"
	"testing"

	"tycoongrid/internal/bank"
	"tycoongrid/internal/pki"
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

// A ShardedBank at any n is the plain bank.Bank: the same operations leave
// the same balances, totals and ledger histories, entry for entry. n only
// decides whether MoveInternal counts a move as local or cross-shard.
func TestAnyShardCountIsThePlainBank(t *testing.T) {
	op := benchIdentity(t)
	ids := make([]bank.AccountID, 8)
	for i := range ids {
		ids[i] = bank.AccountID(fmt.Sprintf("acct-%03d", i))
	}
	for _, n := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			plain := bank.New(op, sim.NewEngine())
			sharded := NewShardedBank(op, sim.NewEngine(), n, nil)
			for _, b := range []*bank.Bank{plain, sharded.Bank} {
				for _, id := range ids {
					if _, err := b.CreateAccount(id, op.Public()); err != nil {
						t.Fatal(err)
					}
					if err := b.Deposit(id, 100*bank.Credit, "seed"); err != nil {
						t.Fatal(err)
					}
				}
			}
			local, cross := mXferLocal.Value(), mXferCross.Value()
			wantCross := uint64(0)
			for i, from := range ids {
				to := ids[(i+3)%len(ids)]
				amt := bank.Amount(i+1) * bank.Credit
				if err := plain.MoveInternal(op, from, to, amt, bank.EntryTransfer, "move"); err != nil {
					t.Fatal(err)
				}
				if err := sharded.MoveInternal(op, from, to, amt, bank.EntryTransfer, "move"); err != nil {
					t.Fatal(err)
				}
				if sharded.ShardFor(from) != sharded.ShardFor(to) {
					wantCross++
				}
			}
			// A refused move is refused alike and counted as neither.
			if err := sharded.MoveInternal(op, ids[0], ids[1], 1000*bank.Credit, bank.EntryTransfer, "x"); err == nil {
				t.Fatal("overdraft accepted")
			}
			if got := mXferCross.Value() - cross; got != wantCross {
				t.Errorf("cross-shard moves counted %d, want %d", got, wantCross)
			}
			if got := mXferLocal.Value() - local; got != uint64(len(ids))-wantCross {
				t.Errorf("local moves counted %d, want %d", got, uint64(len(ids))-wantCross)
			}
			if n == 1 && wantCross != 0 || n == 4 && wantCross == 0 {
				t.Errorf("n=%d: %d cross-shard pairs", n, wantCross)
			}

			for _, id := range ids {
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
			if plain.TotalMoney() != sharded.TotalMoney() || len(sharded.Holds()) != 0 {
				t.Fatalf("total: %v vs %v, holds %d", plain.TotalMoney(), sharded.TotalMoney(), len(sharded.Holds()))
			}
		})
	}
}
