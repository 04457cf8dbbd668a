package marketplane

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tycoongrid/internal/auction"
	"tycoongrid/internal/bank"
	keyshard "tycoongrid/internal/shard"
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
	Observe(fn func(price float64, at time.Time))
	Sleep(w auction.Waker) bool
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
// Hosts skipped by the tick predicate have nil Charges and Refunds; a sleeping
// host owed nothing and, from TickAll, has no result at all. Charges and
// Refunds are what the host's auction.Market.Tick returned: its own slices,
// valid until that market's next Tick. Clone them to keep them longer.
type TickResult struct {
	Host    string
	Index   int // the host's canonical index: its market's position in Config.Markets
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

// shard is one auctioneer partition: a subset of host markets, the ones among
// them that are awake, a bid queue and the log of swept instants under the
// shard's own lock, and pre-resolved metric children.
type shard struct {
	index   int
	markets []HostMarket
	globals []int // canonical index of each local market, ascending
	naps    []nap // each local market's way back from sleep

	// awake holds the local indices a sweep visits, ascending. A sweep ticks
	// each, and drops the ones that fall asleep (auction.Market.Sleep); only
	// sweeps touch it. cleared and order are TickAll's results for this shard
	// and their canonical indices.
	awake   []int
	cleared []TickResult
	order   []int

	mu    sync.Mutex
	queue []queuedBid
	ticks tickLog // every instant a sweep has ticked the awake markets at
	woken []int   // markets woken since the last sweep began; they join the next

	ctr shardCounters
}

// Plane is the sharded market: hosts hash-partitioned across auctioneer
// shards, each clearing its awake hosts once per tick in a batch, plus a
// lock-free spot-price cache refreshed at every clear. Safe for concurrent
// use.
//
// Sleep/wake contract. A tick costs what is awake, not what exists: a market
// whose clear left it quiet (auction.Market.Sleep) leaves its shard's sweep,
// and the shard remembers the instants it sweeps at. The market wakes itself
// when it is bid on, ticked, subscribed to or synced: it rejoins the sweep
// and replays the instants it missed to its observers, which is exactly what
// ticking it through them would have done. So whoever reads what observers
// feed (a price ring, a recorder) must Sync the markets it reads first, and a
// skip predicate must only accept awake hosts (Sync a host before the
// predicate first accepts it): a sleeping host is not asked, and would replay
// the instants it should have been skipped at.
type Plane struct {
	shards  []*shard
	byHost  map[string]int  // host id -> canonical index
	hostIDs []string        // canonical index -> host id
	slot    []slotRef       // canonical index -> shard/local
	prices  []atomic.Uint64 // Float64bits of each host's cached spot price
	results []TickResult    // TickAll's merge of the shards' results
	merged  []int           // how far that merge has read into each shard's
	awake   []uint64        // AppendAwake's scratch, a bit per canonical index
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
		hostIDs: make([]string, len(cfg.Markets)),
		slot:    make([]slotRef, len(cfg.Markets)),
		prices:  make([]atomic.Uint64, len(cfg.Markets)),
		merged:  make([]int, n),
		awake:   make([]uint64, (len(cfg.Markets)+63)/64),
	}
	// The hash spreads hosts evenly, so an even share is about what every
	// shard will hold.
	even := len(cfg.Markets)/n + 1
	for i := range p.shards {
		p.shards[i] = &shard{index: i, ctr: countersFor(i),
			markets: make([]HostMarket, 0, even), globals: make([]int, 0, even),
			naps: make([]nap, 0, even), awake: make([]int, 0, even)}
	}
	for g, m := range cfg.Markets {
		if m == nil {
			return nil, fmt.Errorf("%w: nil market at %d", ErrBadPlaneConfig, g)
		}
		id := m.HostID()
		if _, dup := p.byHost[id]; dup {
			return nil, fmt.Errorf("%w: duplicate host %q", ErrBadPlaneConfig, id)
		}
		s := p.shards[keyshard.Of(id, n)]
		local := len(s.markets)
		s.markets = append(s.markets, m)
		s.globals = append(s.globals, g)
		s.awake = append(s.awake, local) // every market starts awake
		s.naps = append(s.naps, nap{shard: s, local: local})
		p.byHost[id] = g
		p.hostIDs[g] = id
		p.slot[g] = slotRef{shard: s, local: local}
		// The cache follows the market's own publications: every clear
		// refreshes it, whoever ran the clear (a sweep, or a caller holding
		// the market), and a market falls asleep on the price it holds.
		price := &p.prices[g]
		price.Store(math.Float64bits(m.SpotPrice()))
		m.Observe(func(spot float64, _ time.Time) { price.Store(math.Float64bits(spot)) })
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
// one atomic load, no auctioneer lock. The cache is refreshed at each clear,
// so between clears the value is up to one tick stale; that staleness is the
// price of taking bid placement off the auctioneer's lock. A sleeping host's
// entry is exact: its price cannot move until it is bid on.
func (p *Plane) PriceAt(i int) float64 {
	return math.Float64frombits(p.prices[i].Load())
}

// AppendAwake appends the canonical indices of the awake markets to dst,
// ascending, and returns the extended slice: those in a shard's sweep and
// those woken since it. Every other market is asleep, with an empty book and
// the price it fell asleep on. The cost is a bit per market plus the awake
// ones. Like TickAll it reads the sweeps' own lists, so it must not run
// concurrently with a tick, or with another AppendAwake.
func (p *Plane) AppendAwake(dst []int) []int {
	set := p.awake
	clear(set)
	for _, s := range p.shards {
		for _, local := range s.awake {
			g := s.globals[local]
			set[g/64] |= 1 << (g % 64)
		}
		s.mu.Lock()
		for _, local := range s.woken {
			g := s.globals[local]
			set[g/64] |= 1 << (g % 64)
		}
		s.mu.Unlock()
	}
	for w, word := range set {
		for ; word != 0; word &= word - 1 {
			dst = append(dst, w*64+bits.TrailingZeros64(word))
		}
	}
	return dst
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
// each awake host market — and returns the results of the hosts it swept, in
// canonical host order. skip (optional) excludes the hosts at the canonical
// indices it accepts (e.g. crashed ones) from the sweep; it is asked about
// awake hosts only. Shards run concurrently when the plane has more than one.
// The returned slice is the plane's own and is valid until the next TickAll.
func (p *Plane) TickAll(now time.Time, skip func(i int) bool) []TickResult {
	sim.FanOut(len(p.shards), func(i int) {
		p.shards[i].tickInto(p, now, skip, nil)
	})
	mPlaneTicks.Inc()
	if len(p.shards) == 1 {
		return p.shards[0].cleared
	}
	// Merge the shards' results, each ascending by canonical index.
	p.results = p.results[:0]
	at := p.merged
	clear(at)
	for {
		next := -1
		for i, s := range p.shards {
			if at[i] < len(s.order) && (next < 0 || s.order[at[i]] < p.shards[next].order[at[next]]) {
				next = i
			}
		}
		if next < 0 {
			return p.results
		}
		p.results = append(p.results, p.shards[next].cleared[at[next]])
		at[next]++
	}
}

// TickShard advances one shard to now and returns results for that shard's
// hosts only, sleeping ones included, in canonical host order, in a slice of
// the caller's own. Callers that already run one worker per shard use this
// instead of TickAll so the goroutine structure stays theirs, and no two
// workers write to neighbouring memory.
func (p *Plane) TickShard(i int, now time.Time, skip func(host string) bool) []TickResult {
	s := p.shards[i]
	out := make([]TickResult, len(s.markets))
	for local, g := range s.globals {
		out[local].Host, out[local].Index = p.hostIDs[g], g
	}
	var skipAt func(g int) bool
	if skip != nil {
		skipAt = func(g int) bool { return skip(p.hostIDs[g]) }
	}
	s.tickInto(p, now, skipAt, out)
	return out
}

// tickInto sweeps the shard's awake markets. With out nil the results go to
// s.cleared, one per swept market; otherwise to out, which holds one result
// per market of the shard with Host and Index filled in.
func (s *shard) tickInto(p *Plane, now time.Time, skip func(g int) bool, out []TickResult) {
	// Drain the queue under the shard lock, then apply in deterministic
	// (bidder, arrival) order: concurrent enqueuers from different goroutines
	// may interleave arbitrarily, and the sort erases that nondeterminism.
	s.mu.Lock()
	q := s.queue
	s.queue = nil
	s.mu.Unlock()
	slices.SortStableFunc(q, func(a, b queuedBid) int { return strings.Compare(string(a.bidder), string(b.bidder)) })

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

	// The markets woken so far (by the bids above, among others) join this
	// sweep, and now enters the log, in one step: a market that wakes later
	// finds now among the instants it missed and joins the next sweep.
	s.mu.Lock()
	if len(s.woken) > 0 {
		s.awake = append(s.awake, s.woken...)
		slices.Sort(s.awake)
		s.woken = s.woken[:0]
	}
	s.ticks.add(now)
	logged := s.ticks.n
	s.mu.Unlock()

	s.cleared, s.order = s.cleared[:0], s.order[:0]
	clears := 0
	spotSum := 0.0
	stay := s.awake[:0]
	for _, local := range s.awake {
		m, g := s.markets[local], s.globals[local]
		var r *TickResult
		if out != nil {
			r = &out[local]
		} else {
			s.cleared = append(s.cleared, TickResult{Host: p.hostIDs[g], Index: g})
			s.order = append(s.order, g)
			r = &s.cleared[len(s.cleared)-1]
		}
		if skip != nil && skip(g) {
			stay = append(stay, local)
			continue
		}
		r.Charges, r.Refunds = m.Tick(now)
		spotSum += p.PriceAt(g)
		clears++
		// Written before Sleep arms the wake that reads it: the market's
		// lock orders the two.
		s.naps[local].from = logged
		if !m.Sleep(&s.naps[local]) {
			stay = append(stay, local)
		}
	}
	s.awake = stay
	if clears > 0 {
		// The markets' clears are counted here, once a sweep, not by each Tick.
		auction.CountClears(clears)
		s.ctr.clears.Add(uint64(clears))
		s.ctr.spotMean.Set(spotSum / float64(clears))
	}
}

// nap is a sleeping market's way back (auction.Waker): which market it is,
// and the log position its debt starts at.
type nap struct {
	shard *shard
	local int
	from  int
}

// Wake has the market join the next sweep and replays the instants swept
// since it fell asleep — outside the shard lock, since replay runs the
// market's observers.
func (n *nap) Wake(replay func(at time.Time)) {
	s := n.shard
	s.mu.Lock()
	var buf [4]tickRun
	missed := s.ticks.since(n.from, buf[:0])
	s.woken = append(s.woken, n.local)
	s.mu.Unlock()
	for _, r := range missed {
		for k := 0; k < r.count; k++ {
			replay(r.at(k))
		}
	}
}

// tickLog is the sequence of instants a shard has swept at, kept as runs of
// evenly spaced instants: a periodic clock costs one run however long a
// market sleeps.
type tickLog struct {
	runs []tickRun
	n    int // instants logged
}

// tickRun is count instants step apart, the first at first; it holds log
// positions start .. start+count-1.
type tickRun struct {
	first time.Time
	step  time.Duration
	start int
	count int
}

func (r tickRun) at(k int) time.Time { return r.first.Add(time.Duration(k) * r.step) }

// add appends an instant, extending the last run when the instant is exactly
// (as a time.Time value, zone and all) what the run would produce next, so
// that replaying the log hands observers the values the sweeps were given.
func (l *tickLog) add(at time.Time) {
	l.n++
	if len(l.runs) > 0 {
		r := &l.runs[len(l.runs)-1]
		if r.count == 1 {
			r.step = at.Sub(r.first) // a run of one takes its step from the second
		}
		if r.at(r.count) == at {
			r.count++
			return
		}
	}
	l.runs = append(l.runs, tickRun{first: at, start: l.n - 1, count: 1})
}

// since appends to buf the runs covering log positions from .. n-1.
func (l *tickLog) since(from int, buf []tickRun) []tickRun {
	i := len(l.runs)
	for i > 0 && l.runs[i-1].start+l.runs[i-1].count > from {
		i--
	}
	for _, r := range l.runs[i:] {
		if d := from - r.start; d > 0 {
			r.first, r.count = r.at(d), r.count-d
		}
		buf = append(buf, r)
	}
	return buf
}
