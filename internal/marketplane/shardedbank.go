package marketplane

import (
	"tycoongrid/internal/bank"
	"tycoongrid/internal/pki"
	"tycoongrid/internal/sim"
)

// ShardedBank is a name kept for bench/plane.go, which is frozen until ROADMAP
// item 1(a)'s bench-only PR deletes it together with this type: it is one
// bank.Bank. ShardFor still hashes account ids over n, so the bench's replay
// finds a "local" and a "cross" pair, and MoveInternal counts each move as one
// or the other; every move settles in the one bank all the same.
type ShardedBank struct {
	*bank.Bank
	n int
}

// NewShardedBank returns one bank whose ShardFor hashes over n (minimum 1).
func NewShardedBank(id *pki.Identity, clock sim.Clock, n int, bankOpts []bank.Option) *ShardedBank {
	return &ShardedBank{Bank: bank.New(id, clock, bankOpts...), n: max(n, 1)}
}

// ShardFor returns the shard index an account id hashes to.
func (sb *ShardedBank) ShardFor(id bank.AccountID) int { return shardOf(string(id), sb.n) }

// MoveInternal is bank.Bank's, counting a move that succeeded as local or
// cross-shard by where its two ends hash.
func (sb *ShardedBank) MoveInternal(owner *pki.Identity, from, to bank.AccountID, amount bank.Amount, kind bank.EntryKind, memo string) error {
	err := sb.Bank.MoveInternal(owner, from, to, amount, kind, memo)
	if err == nil {
		if sb.ShardFor(from) == sb.ShardFor(to) {
			mXferLocal.Inc()
		} else {
			mXferCross.Inc()
		}
	}
	return err
}

// Holds returns nothing: one bank has no money in transit.
func (sb *ShardedBank) Holds() []string { return nil }
