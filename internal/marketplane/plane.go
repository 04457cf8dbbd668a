package marketplane

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tycoongrid/internal/auction"
	"tycoongrid/internal/bank"
	"tycoongrid/internal/sim"
	"tycoongrid/internal/tracing"
)

// HostMarket is the slice of auction.Market the plane drives. *auction.Market
// satisfies it; the indirection keeps the plane testable with stub markets.
type HostMarket interface {
	HostID() string
	Tick(now time.Time) (charges, refunds []auction.Charge)
	PlaceBid(bidder auction.BidderID, budget bank.Amount, deadline time.Time) (refund bank.Amount, err error)
	SpotPrice() float64
}

// Config configures a Plane.
type Config struct {
	// Shards is the number of auctioneer partitions; values below 1 mean 1.
	// It sets how many goroutines a TickAll uses and nothing else (see the
	// package determinism contract).
	Shards int
	// Markets are the host markets, in the caller's canonical host order;
	// TickAll returns results in this order regardless of sharding.
	Markets []HostMarket
}

// TickResult is one host's outcome of a plane tick, in canonical host order.
// Hosts skipped by the tick predicate have nil Charges and Refunds.
type TickResult struct {
	Host    string
	Charges []auction.Charge
	Refunds []auction.Charge
}

// queuedBid is a bid awaiting the shard's next batch clear.
type queuedBid struct {
	local    int // market index within the shard
	bidder   auction.BidderID
	budget   bank.Amount
	deadline time.Time
}

// shard is one auctioneer partition: a subset of host markets, a bid queue
// under the shard's own lock, and pre-resolved metric children.
type shard struct {
	index   int
	markets []HostMarket
	globals []int // canonical index of each local market

	mu    sync.Mutex
	queue []queuedBid

	ctr shardCounters
}

// Plane is the sharded market: hosts hash-partitioned across auctioneer
// shards, each clearing its hosts once per tick in a batch, plus a lock-free
// spot-price cache refreshed at every clear. Safe for concurrent use.
type Plane struct {
	shards []*shard
	byHost map[string]int  // host id -> canonical index
	slot   []slotRef       // canonical index -> shard/local
	prices []atomic.Uint64 // Float64bits of each host's cached spot price
	// results is the one result slice every TickAll writes, in canonical host
	// order with Host filled in at construction. Each shard writes only its
	// own hosts' entries, so concurrent shards never touch the same one.
	results []TickResult
}

type slotRef struct {
	shard *shard
	local int
}

// ErrBadPlaneConfig is returned by New for a config no plane can be built on.
var ErrBadPlaneConfig = errors.New("marketplane: invalid config")

// New partitions the given markets across cfg.Shards auctioneer shards.
func New(cfg Config) (*Plane, error) {
	if len(cfg.Markets) == 0 {
		return nil, fmt.Errorf("%w: no markets", ErrBadPlaneConfig)
	}
	n := cfg.Shards
	if n < 1 {
		n = 1
	}
	if n > len(cfg.Markets) {
		n = len(cfg.Markets)
	}
	p := &Plane{
		shards:  make([]*shard, n),
		byHost:  make(map[string]int, len(cfg.Markets)),
		slot:    make([]slotRef, len(cfg.Markets)),
		prices:  make([]atomic.Uint64, len(cfg.Markets)),
		results: make([]TickResult, len(cfg.Markets)),
	}
	// The hash spreads hosts evenly, so an even share is about what every
	// shard will hold.
	even := len(cfg.Markets)/n + 1
	for i := range p.shards {
		p.shards[i] = &shard{index: i, ctr: countersFor(i),
			markets: make([]HostMarket, 0, even), globals: make([]int, 0, even)}
	}
	for g, m := range cfg.Markets {
		if m == nil {
			return nil, fmt.Errorf("%w: nil market at %d", ErrBadPlaneConfig, g)
		}
		id := m.HostID()
		if _, dup := p.byHost[id]; dup {
			return nil, fmt.Errorf("%w: duplicate host %q", ErrBadPlaneConfig, id)
		}
		s := p.shards[ShardOf(id, n)]
		s.markets = append(s.markets, m)
		s.globals = append(s.globals, g)
		p.byHost[id] = g
		p.slot[g] = slotRef{shard: s, local: len(s.markets) - 1}
		p.prices[g].Store(math.Float64bits(m.SpotPrice()))
		p.results[g].Host = id
	}
	return p, nil
}

// ShardIndexOf returns which shard owns a host.
func (p *Plane) ShardIndexOf(host string) (int, bool) {
	g, ok := p.byHost[host]
	if !ok {
		return 0, false
	}
	return p.slot[g].shard.index, true
}

// PriceAt returns the cached spot price of the host at canonical index i —
// one atomic load, no auctioneer lock. The cache is refreshed at each batch
// clear, so between clears the value is up to one tick stale; that staleness
// is the price of taking bid placement off the auctioneer's lock.
func (p *Plane) PriceAt(i int) float64 {
	return math.Float64frombits(p.prices[i].Load())
}

// EnqueueBidAt queues a bid for the host at canonical index i; it is entered
// into the host's market at the owning shard's next batch clear. The call
// takes only the shard's queue lock, never the auctioneer's.
func (p *Plane) EnqueueBidAt(i int, bidder auction.BidderID, budget bank.Amount, deadline time.Time) {
	ref := p.slot[i]
	ref.shard.mu.Lock()
	ref.shard.queue = append(ref.shard.queue, queuedBid{
		local: ref.local, bidder: bidder, budget: budget, deadline: deadline,
	})
	ref.shard.mu.Unlock()
	ref.shard.ctr.enqueued.Inc()
}

// TickAll advances every shard to now — applying queued bids, batch-clearing
// each host market, refreshing the price cache — and returns per-host
// results in canonical host order. skip (optional) excludes the hosts at the
// canonical indices it accepts (e.g. crashed ones) from the sweep. Shards run
// concurrently when the plane has more than one. The returned slice is the
// plane's own and is valid until the next TickAll.
func (p *Plane) TickAll(now time.Time, skip func(i int) bool) []TickResult {
	sim.FanOut(len(p.shards), func(i int) {
		p.shards[i].tickInto(p, now, skip, p.results, true)
	})
	mPlaneTicks.Inc()
	return p.results
}

// TickShard advances one shard to now and returns results for that shard's
// hosts only, in canonical host order, in a slice of the caller's own.
// Callers that already run one worker per shard use this instead of TickAll
// so the goroutine structure stays theirs, and no two workers write to
// neighbouring memory.
func (p *Plane) TickShard(i int, now time.Time, skip func(host string) bool) []TickResult {
	s := p.shards[i]
	out := make([]TickResult, len(s.markets))
	for local, g := range s.globals {
		out[local].Host = p.results[g].Host
	}
	var skipAt func(g int) bool
	if skip != nil {
		skipAt = func(g int) bool { return skip(p.results[g].Host) }
	}
	s.tickInto(p, now, skipAt, out, false)
	return out
}

// tickInto clears the shard's markets into out, which has Host filled in:
// each result at its host's canonical index, or — for a slice holding this
// shard's hosts only — at the market's index within the shard.
func (s *shard) tickInto(p *Plane, now time.Time, skip func(g int) bool, out []TickResult, canonical bool) {
	// Drain the queue under the shard lock, then apply in deterministic
	// (bidder, arrival) order: concurrent enqueuers from different goroutines
	// may interleave arbitrarily, and the sort erases that nondeterminism.
	s.mu.Lock()
	q := s.queue
	s.queue = nil
	s.mu.Unlock()
	sort.SliceStable(q, func(i, j int) bool { return q[i].bidder < q[j].bidder })

	applied, dropped := uint64(0), uint64(0)
	applyStart := time.Now()
	for _, b := range q {
		if skip != nil && skip(s.globals[b.local]) {
			dropped++
			continue
		}
		if _, err := s.markets[b.local].PlaceBid(b.bidder, b.budget, b.deadline); err != nil {
			dropped++
			continue
		}
		applied++
	}
	if len(q) > 0 {
		// One observation per drained batch; the exemplar ties a slow apply
		// to the trace that was active when the batch cleared.
		elapsed := time.Since(applyStart).Seconds()
		if sp := tracing.Default().Current(); sp.Recording() {
			mBidApplySeconds.ObserveExemplar(elapsed, sp.Context().TraceID.String())
		} else {
			mBidApplySeconds.Observe(elapsed)
		}
	}
	if applied > 0 {
		s.ctr.applied.Add(applied)
	}
	if dropped > 0 {
		s.ctr.dropped.Add(dropped)
	}

	clears := uint64(0)
	spotSum := 0.0
	for local, m := range s.markets {
		g := s.globals[local]
		r := &out[local]
		if canonical {
			r = &out[g]
		}
		if skip != nil && skip(g) {
			r.Charges, r.Refunds = nil, nil
			continue
		}
		r.Charges, r.Refunds = m.Tick(now)
		spot := m.SpotPrice()
		p.prices[g].Store(math.Float64bits(spot))
		spotSum += spot
		clears++
	}
	if clears > 0 {
		s.ctr.clears.Add(clears)
		s.ctr.spotMean.Set(spotSum / float64(clears))
	}
}
