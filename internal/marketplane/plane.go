package marketplane

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"strconv"
	"sync"
	"time"

	"tycoongrid/internal/auction"
	"tycoongrid/internal/bank"
	"tycoongrid/internal/metrics"
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
	// Only a caller that runs a worker per shard through TickShard (bench's
	// plane-burst) sets it above 1; TickAll sweeps the shards one after
	// another, and a world's plane has one.
	Shards int
	// Markets are the host markets, in the caller's canonical host order;
	// TickAll returns results in this order regardless of sharding.
	Markets []HostMarket
}

// TickResult is one host's outcome of a plane tick, in canonical host order.
// TickAll returns one only for a swept host whose clear charged or refunded
// someone: a host skipped by the tick predicate, a sleeping one and one whose
// clear moved no money have none. (TickShard returns one for every host of
// its shard; there a host that was not cleared has nil Charges and Refunds.)
// Charges and Refunds are what the host's auction.Market.Tick returned: its
// own slices, valid until that market's next Tick. Clone them to keep them
// longer.
type TickResult struct {
	Host    string
	Index   int // the host's canonical index: its market's position in Config.Markets
	Charges []auction.Charge
	Refunds []auction.Charge
}

// shard is one auctioneer partition: a subset of host markets, the ones among
// them that are awake, the log of swept instants under the shard's own lock,
// and pre-resolved metric children.
type shard struct {
	index   int
	markets []HostMarket
	globals []int // canonical index of each local market, ascending
	naps    []nap // each local market's way back from sleep

	// awake holds the local indices a sweep visits, ascending. A sweep ticks
	// each, and drops the ones that fall asleep (auction.Market.Sleep); only
	// sweeps touch it. cleared is TickAll's results for this shard: the clears
	// that moved money.
	awake   []int
	cleared []TickResult

	mu    sync.Mutex // guards ticks, woken and shardBench's queue
	ticks tickLog    // every instant a sweep has ticked the awake markets at
	woken []int      // markets woken since the last sweep began; they join the next

	clears *metrics.Counter // this shard's marketplane_shard_clears_total child

	shardBench
}

// wokenKept is the room, in markets, a shard's woken array may keep however
// little a sweep finds in it; a larger array goes once a sweep finds it over
// eight times what it held.
const wokenKept = 256

// Plane is the sharded market: hosts hash-partitioned across auctioneer
// shards, each clearing its awake hosts once per tick in a batch. Safe for
// concurrent use.
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
	hostIDs []string     // canonical index -> host id
	slot    []slotRef    // canonical index -> shard/local
	results []TickResult // TickAll's results of every shard, sorted by index
	awake   []uint64     // AppendAwake's scratch, a bit per canonical index

	planeBench
}

type slotRef struct {
	shard *shard
	local int
}

// ErrBadPlaneConfig is returned by New for a config no plane can be built on.
var ErrBadPlaneConfig = errors.New("marketplane: invalid config")

// New partitions the given markets across cfg.Shards auctioneer shards. Every
// market must be of a distinct host.
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
		hostIDs: make([]string, len(cfg.Markets)),
		slot:    make([]slotRef, len(cfg.Markets)),
		awake:   make([]uint64, (len(cfg.Markets)+63)/64),
	}
	// The hash spreads hosts evenly, so an even share is about what every
	// shard will hold.
	even := len(cfg.Markets)/n + 1
	for i := range p.shards {
		p.shards[i] = &shard{index: i, clears: mShardClears.With(strconv.Itoa(i)),
			markets: make([]HostMarket, 0, even), globals: make([]int, 0, even),
			naps: make([]nap, 0, even), awake: make([]int, 0, even)}
	}
	for g, m := range cfg.Markets {
		if m == nil {
			return nil, fmt.Errorf("%w: nil market at %d", ErrBadPlaneConfig, g)
		}
		id := m.HostID()
		s := p.shards[shardOf(id, n)]
		local := len(s.markets)
		s.markets = append(s.markets, m)
		s.globals = append(s.globals, g)
		s.awake = append(s.awake, local) // every market starts awake
		s.naps = append(s.naps, nap{shard: s, local: local})
		p.hostIDs[g] = id
		p.slot[g] = slotRef{shard: s, local: local}
	}
	// The plane keeps no index by host id, which nothing a world runs reads:
	// duplicates are found in a sorted copy that lives only as long as New.
	ids := slices.Clone(p.hostIDs)
	slices.Sort(ids)
	for i := 1; i < len(ids); i++ {
		if ids[i] == ids[i-1] {
			return nil, fmt.Errorf("%w: duplicate host %q", ErrBadPlaneConfig, ids[i])
		}
	}
	return p, nil
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

// TickAll advances every shard to now, batch-clearing each awake host
// market, and returns a result for each swept host whose clear charged or
// refunded someone, in canonical host order: a clear that moved no money has
// nothing to settle, so an idle world's sweep returns nothing and keeps no
// row per host. skip (optional) excludes the hosts at the canonical indices
// it accepts (e.g. crashed ones) from the sweep; it is asked about awake
// hosts only. The shards are swept in order on the caller's goroutine. The
// returned slice is the plane's own and is valid until the next TickAll.
func (p *Plane) TickAll(now time.Time, skip func(i int) bool) []TickResult {
	for _, s := range p.shards {
		s.tickInto(p, now, skip, nil)
	}
	if len(p.shards) == 1 {
		return p.shards[0].cleared
	}
	p.results = p.results[:0]
	for _, s := range p.shards {
		p.results = append(p.results, s.cleared...)
	}
	slices.SortFunc(p.results, func(a, b TickResult) int { return a.Index - b.Index })
	return p.results
}

// tickInto sweeps the shard's awake markets. With out nil the results go to
// s.cleared, one per swept market whose clear charged or refunded; otherwise
// to out, which holds one result per market of the shard with Host and Index
// filled in.
func (s *shard) tickInto(p *Plane, now time.Time, skip func(g int) bool, out []TickResult) {
	// The markets woken so far (by bids, among others) join this sweep, and
	// now enters the log, in one step: a market that wakes later finds now
	// among the instants it missed and joins the next sweep.
	s.mu.Lock()
	if len(s.woken) > 0 {
		s.awake = append(s.awake, s.woken...)
		slices.Sort(s.awake)
	}
	// A wake of the whole shard (a Cluster.Sync) grows the array to every
	// market; a sweep that finds it far larger than what it held lets it go.
	if c := cap(s.woken); c > wokenKept && c > 8*len(s.woken) {
		s.woken = nil
	} else {
		s.woken = s.woken[:0]
	}
	s.ticks.add(now)
	logged := s.ticks.n
	s.mu.Unlock()

	s.cleared = s.cleared[:0]
	clears := 0
	stay := s.awake[:0]
	for _, local := range s.awake {
		m, g := s.markets[local], s.globals[local]
		if skip != nil && skip(g) {
			stay = append(stay, local)
			continue
		}
		charges, refunds := m.Tick(now)
		clears++
		if out != nil {
			out[local].Charges, out[local].Refunds = charges, refunds
		} else if len(charges) > 0 || len(refunds) > 0 {
			s.cleared = append(s.cleared, TickResult{Host: p.hostIDs[g], Index: g, Charges: charges, Refunds: refunds})
		}
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
		s.clears.Add(uint64(clears))
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

// FNV-1a 64-bit, inlined so the per-key hash is allocation-free (the stdlib
// hash.Hash interface forces a heap-allocated state object per use).
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// shardOf maps a key (a host id, an account id) to one of n shards by FNV-1a
// hash. The plane's auctioneer shards and ShardedBank.ShardFor hash with it,
// so they agree on one hash. The assignment depends only on the key and n,
// never on insertion order, so adding hosts or accounts does not migrate
// existing ones between shards within a run.
func shardOf(key string, n int) int {
	if n <= 1 {
		return 0
	}
	h := fnvOffset64
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= fnvPrime64
	}
	return int(h % uint64(n))
}
