// This file is every name of the package that only bench/'s plane-burst
// workload calls, and nothing a world runs: the bid queue (EnqueueBidAt,
// applied by TickShard), the per-shard sweep TickShard, ShardIndexOf and the
// index by host id it builds, the spot-price cache PriceAt reads, and
// ShardedBank. New hangs no price observer and builds no index, and TickAll
// applies no queue, so a world built on the plane pays for none of it.
// ROADMAP item 4 deletes this file when plane-burst is rebuilt on the path a
// world uses.

package marketplane

import (
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tycoongrid/internal/auction"
	"tycoongrid/internal/bank"
	"tycoongrid/internal/metrics"
	"tycoongrid/internal/pki"
	"tycoongrid/internal/sim"
)

// shardBench is a shard's bench-only state. queue holds the bids awaiting the
// shard's next TickShard, under the shard's lock; drained is the array the
// last TickShard applied, emptied, which the next one hands to enqueuers.
// results is TickShard's, one per market, allocated at the first TickShard.
type shardBench struct {
	queue   []queuedBid
	drained []queuedBid
	results []TickResult
}

// queuedBid is a bid awaiting the shard's next TickShard.
type queuedBid struct {
	local    int // market index within the shard
	bidder   auction.BidderID
	budget   bank.Amount
	deadline time.Time
}

// planeBench is the plane's bench-only state: the spot-price cache, hung by
// the first PriceAt, and the index by host id, built by the first
// ShardIndexOf.
type planeBench struct {
	pricesOnce sync.Once
	prices     []atomic.Uint64 // Float64bits of each host's cached spot price

	byHostOnce sync.Once
	byHost     map[string]int // host id -> canonical index
}

// ShardIndexOf returns which shard owns a host. The first call builds the
// index by host id; New has refused duplicates, so each id has one entry.
func (p *Plane) ShardIndexOf(host string) (int, bool) {
	p.byHostOnce.Do(func() {
		p.byHost = make(map[string]int, len(p.slot))
		for g := range p.slot {
			p.byHost[p.market(g).HostID()] = g
		}
	})
	g, ok := p.byHost[host]
	if !ok {
		return 0, false
	}
	return int(p.slot[g].shard), true
}

// PriceAt returns the cached spot price of the host at canonical index i —
// one atomic load, no auctioneer lock. The first call hangs the cache: an
// observer on every market, so every clear refreshes its entry whoever ran
// it, and each entry seeded from its market's SpotPrice. Observe wakes a
// sleeping market and the seed reads the price of the last clear, so that
// first call must not run beside a tick. Between clears an entry is up to one
// tick stale; that staleness is the price of taking bid placement off the
// auctioneer's lock. A sleeping host's entry is exact: its price cannot move
// until it is bid on.
func (p *Plane) PriceAt(i int) float64 {
	p.pricesOnce.Do(func() {
		p.prices = make([]atomic.Uint64, len(p.slot))
		for g := range p.slot {
			m, price := p.market(g), &p.prices[g]
			m.Observe(func(spot float64, _ time.Time) { price.Store(math.Float64bits(spot)) })
			price.Store(math.Float64bits(m.SpotPrice()))
		}
	})
	return math.Float64frombits(p.prices[i].Load())
}

// EnqueueBidAt queues a bid for the host at canonical index i; it is entered
// into the host's market at the owning shard's next TickShard (TickAll leaves
// the queue alone). The call takes only the shard's queue lock, never the
// auctioneer's.
func (p *Plane) EnqueueBidAt(i int, bidder auction.BidderID, budget bank.Amount, deadline time.Time) {
	ref := p.slot[i]
	s := p.shards[ref.shard]
	s.mu.Lock()
	s.queue = append(s.queue, queuedBid{
		local: int(ref.local), bidder: bidder, budget: budget, deadline: deadline,
	})
	s.mu.Unlock()
}

// TickShard applies shard i's queued bids, advances the shard to now and
// returns results for that shard's hosts only, sleeping ones included, in
// canonical host order. The slice is the shard's own and is valid until that
// shard's next TickShard; every entry is rewritten by each call. Callers that
// already run one worker per shard use this instead of TickAll so the
// goroutine structure stays theirs; each shard's slice is allocated on its
// own, so no two workers write to neighbouring memory.
func (p *Plane) TickShard(i int, now time.Time, skip func(host string) bool) []TickResult {
	s := p.shards[i]
	if s.results == nil {
		s.results = make([]TickResult, len(s.markets))
		for local, g := range s.globals {
			s.results[local].Host, s.results[local].Index = s.markets[local].HostID(), int(g)
		}
	}
	for local := range s.results {
		s.results[local].Charges, s.results[local].Refunds = nil, nil
	}
	var skipAt func(g int) bool
	if skip != nil {
		skipAt = func(g int) bool { return skip(p.market(g).HostID()) }
	}
	s.applyQueue(skipAt)
	s.tickInto(p, now, skipAt, s.results)
	return s.results
}

// applyQueue drains the queue under the shard lock, then places the bids in
// deterministic (bidder, arrival) order: concurrent enqueuers from different
// goroutines may interleave arbitrarily, and the sort erases that
// nondeterminism. Enqueuers go on appending to the array the last drain
// emptied, so the two arrays alternate and the queue regrows only past its
// high-water mark. A bid for a skipped host, or one its market refuses, is
// dropped, and so is the refund of a re-bid.
func (s *shard) applyQueue(skip func(g int) bool) {
	s.mu.Lock()
	q := s.queue
	s.queue, s.drained = s.drained, nil
	s.mu.Unlock()
	slices.SortStableFunc(q, func(a, b queuedBid) int { return strings.Compare(string(a.bidder), string(b.bidder)) })
	for _, b := range q {
		if skip == nil || !skip(int(s.globals[b.local])) {
			_, _ = s.markets[b.local].PlaceBid(b.bidder, b.budget, b.deadline)
		}
	}
	clear(q) // drop the bidders' strings
	s.drained = q[:0]
}

// ShardedBank is a name kept for bench/plane.go: it is one bank.Bank.
// ShardFor still hashes account ids over n, so the bench's replay finds a
// "local" and a "cross" pair, and MoveInternal counts each move as one or the
// other; every move settles in the one bank all the same.
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

var (
	mXferLocal = metrics.Default().Counter("marketplane_transfers_local_total",
		"ShardedBank moves whose two accounts hash to one shard (bench/plane.go only).")
	mXferCross = metrics.Default().Counter("marketplane_transfers_cross_shard_total",
		"ShardedBank moves whose two accounts hash to different shards (bench/plane.go only).")
)
