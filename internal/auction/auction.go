// Package auction implements Tycoon's per-host continuous market (paper
// §2.2): a bid-based proportional-share auction that reallocates the host's
// CPU every interval (10 seconds by default), charges bidders only for
// resources actually used, and refunds outstanding balances.
//
// A bid is (budget, deadline): the budget is amortized over the time to the
// deadline, giving a spend rate in credits/second. At each reallocation a
// bidder's CPU share is its spend rate divided by the sum of all active spend
// rates; the sum itself is the host's spot price. Adding funds ("boosting",
// §3) raises the remaining budget and recomputes the rate over the remaining
// time.
//
// The Market owns bid lifecycle — budgets, deadlines, boosts, charging,
// expiry — but delegates the economics of each reallocation (who gets what
// fraction, at what pay rate, at what published price) to a pluggable
// internal/mechanism.Mechanism. The default is the proportional-share rule
// above, bit-for-bit identical to the pre-mechanism implementation; VCG and
// posted-price clearing plug in through Config.Mechanism. The Market does not
// itself touch a bank; the auctioneer layer applies the returned charges to
// host accounts. Price statistics hooks feed the prediction stack of §4.
//
// The book is kept ascending by bidder, because that is the order everything
// reads it in: the mechanisms' input contract, the fixed fold order of every
// price sum, and the order charges, refunds and shares are reported in. A
// clear walks it once and sorts nothing. It is two parallel columns: the
// mechanism's input itself (bidder and spend rate), handed to every clear and
// quote as it is, and the rest of each bid (budget left, deadline, pay rate,
// active). That is sound because every bid on the book has budget left
// between operations — a clear drops one that ran dry — so the whole first
// column is the live book. The share table is not kept: it is the book read
// against the lines of the last outcome, which the market keeps as its clear
// scratch, and they stand for the current book — a stateless mechanism's clear
// is its quote — until a mutation drops them, so reading shares between clears
// does not run the mechanism again. The book and those buffers hang off the
// market from its first bid on: a market nobody bids on, almost every host of
// a wide grid, holds none of them.
package auction

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tycoongrid/internal/bank"
	"tycoongrid/internal/mechanism"
	"tycoongrid/internal/pricefeed"
	"tycoongrid/internal/tracing"
	"tycoongrid/internal/tsdb"
)

// DefaultInterval is the paper's reallocation period.
const DefaultInterval = 10 * time.Second

// BidderID identifies a market participant (typically a bank account id).
type BidderID string

// bidRest is a bid's row in the book's second column: what the mechanism's
// input (bidder and spend rate, in the first) does not carry.
type bidRest struct {
	remaining bank.Amount // unspent budget, > 0 between operations
	deadline  int64       // Unix nanoseconds
	payRate   float64     // credits/second charged while active; set by the mechanism at each clear
	active    bool        // consuming CPU this interval (charged only if true)
}

// Share describes one bidder's allocation at the last reallocation.
type Share struct {
	Bidder    BidderID
	Fraction  float64 // of the whole host's CPU, in [0, 1]
	Rate      float64 // spend rate, credits/second
	Remaining bank.Amount
}

// Charge is money owed by a bidder for the last interval.
type Charge struct {
	Bidder BidderID
	Amount bank.Amount
}

// book is a market's order book and the buffers its clears reuse. The first
// PlaceBid allocates it, and the market keeps it for life.
type book struct {
	// The book, ascending by bidder with unique bidders, as two columns of
	// one row per bid: bids is each bid as the mechanism takes it (bidder, and
	// the spend rate fixed until a boost or re-bid), handed to Quote and Clear
	// untouched, and rest is the rest of it at the same index.
	bids []mechanism.Bid
	rest []bidRest

	// lines are the last outcome's lines, the buffer every clear and quote
	// appends to under the market lock (no mechanism retains it). While the
	// market is quoted they are an outcome of the current book, and the share
	// table is the book read against them. charges and refunds back the
	// slices Tick returns, which are therefore valid until the next Tick.
	lines   []mechanism.Line
	charges []Charge
	refunds []Charge
}

// live returns the bids on the book: none before the market's first bid.
func (b *book) live() []mechanism.Bid {
	if b == nil {
		return nil
	}
	return b.bids
}

// scratch returns the lines buffer a clear or quote appends to: none before
// the market's first bid.
func (b *book) scratch() []mechanism.Line {
	if b == nil {
		return nil
	}
	return b.lines
}

// Market is one host's auction. Safe for concurrent use.
type Market struct {
	mu        sync.Mutex
	hostID    string
	capacity  float64 // MHz
	reserve   float64 // reserve price, credits/second, floor for the spot price
	book      *book   // nil until the first PlaceBid
	price     float64 // spot price at last reallocation, credits/second
	now       time.Time
	observers []func(price float64, at time.Time)
	// obs2 is inline room for the first two observers (a price ring's
	// recorder, a predictor's feed): wiring 10 000 markets allocates nothing
	// for them.
	obs2    [2]func(price float64, at time.Time)
	mech    mechanism.Mechanism // clearing rule; proportional share by default
	history *tsdb.Ring          // nil until a reader asks (History)
	// quoted: the book's lines are an outcome of the current book; every
	// mutation of the book clears it.
	quoted bool

	// Sleep state (see Sleep). quiet: the last clear was of an empty book by a
	// settled mechanism, so every further idle clear would publish m.price
	// again. waker is non-nil while the market is asleep, and asleep mirrors
	// that for Sync's lock-free look; wakeMu serialises wake-ups, so nobody
	// enters the market while one is replaying.
	quiet  bool
	waker  Waker
	asleep atomic.Bool
	wakeMu sync.Mutex
}

// Config configures a Market.
type Config struct {
	HostID      string
	CapacityMHz float64
	// ReservePrice is the minimum spot price (credits/second) reported even
	// when the host is idle; it models the host's opportunity cost and keeps
	// the Best Response optimizer's prices strictly positive.
	ReservePrice float64
	// Start is the market's initial clock reading.
	Start time.Time
	// Tracer is read by nothing: a clear no longer times itself, so it names
	// no trace. It is kept for bench/replay.go and bench/plane.go, which are
	// frozen until ROADMAP item 1's bench PR drops it from both.
	Tracer *tracing.Tracer
	// Mechanism is the clearing rule applied at every Tick. Nil selects the
	// paper's proportional-share rule. The instance must not be shared across
	// markets: mechanisms may carry per-host state (the posted price).
	Mechanism mechanism.Mechanism
}

// Errors returned by Market operations.
var (
	ErrUnknownBidder = errors.New("auction: unknown bidder")
	ErrBadBid        = errors.New("auction: invalid bid")
)

// NewMarket creates a market for one host.
func NewMarket(cfg Config) (*Market, error) {
	if cfg.HostID == "" || cfg.CapacityMHz <= 0 {
		return nil, fmt.Errorf("%w: host %q capacity %v", ErrBadBid, cfg.HostID, cfg.CapacityMHz)
	}
	reserve := cfg.ReservePrice
	if reserve <= 0 {
		reserve = 1e-6 // one microcredit/second
	}
	mech := cfg.Mechanism
	if mech == nil {
		mech, _ = mechanism.New(mechanism.Proportional, mechanism.Config{})
	}
	m := &Market{
		mech:     mech,
		hostID:   cfg.HostID,
		capacity: cfg.CapacityMHz,
		reserve:  reserve,
		price:    reserve,
		now:      cfg.Start,
	}
	m.observers = m.obs2[:0]
	return m, nil
}

// HostID returns the host this market allocates.
func (m *Market) HostID() string { return m.hostID }

// MechanismName returns the name of the clearing rule in force.
func (m *Market) MechanismName() string { return m.mech.Name() }

// CapacityMHz returns the host's CPU capacity.
func (m *Market) CapacityMHz() float64 { return m.capacity }

// ReservePrice returns the floor of the spot price: what PriceExcluding
// answers for every bidder while the book is empty, and so while the market
// sleeps. Like the capacity, it never changes.
func (m *Market) ReservePrice() float64 { return m.reserve }

// Observe registers a callback invoked with the spot price after every
// reallocation; the prediction stack attaches its moving-window statistics
// here. A sleeping market is woken first, so a subscriber never receives a
// sample from before it subscribed. A callback may call back into the market
// from a clear, but not from a replayed sample (see Sleep).
func (m *Market) Observe(fn func(price float64, at time.Time)) {
	m.lockAwake()
	defer m.mu.Unlock()
	m.observers = append(m.observers, fn)
}

// History returns the market's one price ring, which every reader of its
// past prices shares. The first call with capacity >= 1 hangs it (after a
// sleeping market pays its other observers, so it holds nothing older than
// itself); a later one raises it to capacity if that is larger. capacity < 1
// only looks: nil if no reader has asked.
func (m *Market) History(capacity int) *tsdb.Ring {
	if capacity < 1 {
		m.mu.Lock()
		defer m.mu.Unlock()
		return m.history
	}
	m.lockAwake()
	defer m.mu.Unlock()
	if m.history == nil {
		m.history = tsdb.NewRing(capacity)
		m.observers = append(m.observers, pricefeed.Observer(m.history))
	}
	m.history.Raise(capacity)
	return m.history
}

// Waker is the side of Sleep that the market's driver implements.
type Waker interface {
	// Wake puts the market back into the driver's sweep and calls replay, in
	// order, with every instant the driver has ticked its markets at since
	// Sleep returned.
	Wake(replay func(at time.Time))
}

// Sleep is for the driver that ticks this market (a marketplane shard): called
// after a Tick, it puts a quiet market to sleep and reports whether it did. A
// market is quiet when its book is empty and its last clear was of an empty
// book by a settled mechanism: every further Tick would charge nobody and
// publish the same price. The driver stops ticking a sleeping market, which
// from then on owes its observers one (price, instant) sample per tick it was
// excused from.
//
// The debt is paid the moment anything could tell the difference — PlaceBid,
// Tick, Observe and Sync wake a sleeping market before they do anything else,
// by calling w.Wake once. Each instant it replays is delivered to the
// observers exactly as the clear it stands for would have been, and the
// market's clock ends at the last one, so observers and later charges cannot
// tell a market that slept from one that was ticked throughout. Replayed
// clears are not counted as clears.
func (m *Market) Sleep(w Waker) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.quiet || len(m.book.live()) != 0 || m.waker != nil {
		return false
	}
	m.waker = w
	m.asleep.Store(true)
	return true
}

// Sync wakes the market if it is asleep, so that everything its observers
// feed (its price ring, predictors) is up to date. Read such state
// only after syncing the hosts it covers; see Sleep. On a market that is
// awake it costs one atomic load.
func (m *Market) Sync() {
	if m.asleep.Load() {
		m.wakeUp()
	}
}

// lockAwake takes the market lock with the market awake.
func (m *Market) lockAwake() {
	m.mu.Lock()
	for m.waker != nil {
		m.mu.Unlock()
		m.wakeUp()
		m.mu.Lock()
	}
}

// wakeUp replays the samples a sleeping market owes. The observers run
// outside the market lock, like those of a clear, but under wakeMu: a second
// caller waits for the replay to finish and then finds the market awake.
func (m *Market) wakeUp() {
	m.wakeMu.Lock()
	defer m.wakeMu.Unlock()
	m.mu.Lock()
	w, price, obs := m.waker, m.price, m.observers
	m.mu.Unlock()
	if w == nil {
		return
	}
	var last time.Time
	owed := false
	w.Wake(func(at time.Time) {
		for _, fn := range obs {
			fn(price, at)
		}
		last, owed = at, true
	})
	m.mu.Lock()
	if owed {
		m.now = last
	}
	m.waker = nil
	m.asleep.Store(false)
	m.mu.Unlock()
}

// find returns the position of bidder's bid in the book, or where it would
// be inserted. Callers hold m.mu.
func (m *Market) find(bidder BidderID) (int, bool) {
	return slices.BinarySearchFunc(m.book.live(), bidder, func(b mechanism.Bid, id BidderID) int {
		return strings.Compare(b.Bidder, string(id))
	})
}

// PlaceBid enters or replaces a bid for bidder: budget amortized until
// deadline. A replaced bid's unspent budget is returned as refund.
func (m *Market) PlaceBid(bidder BidderID, budget bank.Amount, deadline time.Time) (refund bank.Amount, err error) {
	if bidder == "" || budget <= 0 {
		return 0, fmt.Errorf("%w: bidder %q budget %v", ErrBadBid, bidder, budget)
	}
	m.lockAwake() // the horizon below is measured from the market's clock
	defer m.mu.Unlock()
	horizon := deadline.Sub(m.now).Seconds()
	if horizon <= 0 {
		return 0, fmt.Errorf("%w: deadline not in the future", ErrBadBid)
	}
	rate := budget.Credits() / horizon
	bid := mechanism.Bid{Bidder: string(bidder), Rate: rate}
	rest := bidRest{
		remaining: budget,
		deadline:  deadline.UnixNano(),
		// Until the next clear prices this bid, it pays its own reported
		// rate — for proportional share that is also the final pay rate,
		// which keeps the legacy charge sequence bit-identical.
		payRate: rate,
		active:  true,
	}
	if m.book == nil {
		m.book = new(book)
	}
	b := m.book
	if at, ok := m.find(bidder); ok {
		refund = b.rest[at].remaining
		b.bids[at], b.rest[at] = bid, rest
	} else {
		b.bids = slices.Insert(b.bids, at, bid)
		b.rest = slices.Insert(b.rest, at, rest)
	}
	m.quoted = false
	mBidsPlaced.Inc()
	mBidBudget.Observe(budget.Credits())
	return refund, nil
}

// Boost adds funds to an existing bid and recomputes the spend rate over the
// remaining time to the deadline — the paper's mechanism for making a
// submitted job complete sooner. A boost the budget cannot hold (it would
// overflow an Amount) is refused.
func (m *Market) Boost(bidder BidderID, extra bank.Amount) error {
	if extra <= 0 {
		return fmt.Errorf("%w: non-positive boost", ErrBadBid)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	at, ok := m.find(bidder)
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownBidder, bidder)
	}
	b, r := &m.book.bids[at], &m.book.rest[at]
	if r.remaining > math.MaxInt64-extra {
		return fmt.Errorf("%w: boost of %v overflows the budget", ErrBadBid, extra)
	}
	r.remaining += extra
	horizon := time.Duration(r.deadline - m.now.UnixNano()).Seconds()
	if horizon <= 0 {
		horizon = DefaultInterval.Seconds()
	}
	b.Rate = r.remaining.Credits() / horizon
	r.payRate = b.Rate // boosted spend applies immediately, repriced at next clear
	m.quoted = false
	return nil
}

// SetActive marks whether bidder is consuming CPU. Inactive bidders keep
// their share reserved at zero cost — "Tycoon only charges for resources
// actually used".
func (m *Market) SetActive(bidder BidderID, active bool) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	at, ok := m.find(bidder)
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownBidder, bidder)
	}
	m.book.rest[at].active = active // shares do not depend on it
	return nil
}

// CancelBid withdraws a bid, returning the unspent budget for refund.
func (m *Market) CancelBid(bidder BidderID) (bank.Amount, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	at, ok := m.find(bidder)
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownBidder, bidder)
	}
	b := m.book
	remaining := b.rest[at].remaining
	b.bids = slices.Delete(b.bids, at, at+1) // zeroes the vacated row: no stale bidder string
	b.rest = slices.Delete(b.rest, at, at+1)
	m.quoted = false
	return remaining, nil
}

// CancelAll withdraws every bid at once — a host that died can no longer
// deliver CPU — and returns the unspent budgets to refund, ascending by
// bidder (every bid on the book has some).
func (m *Market) CancelAll() []Charge {
	m.mu.Lock()
	defer m.mu.Unlock()
	b := m.book
	if b == nil {
		return nil
	}
	var refunds []Charge
	for i := range b.bids {
		refunds = append(refunds, Charge{Bidder: BidderID(b.bids[i].Bidder), Amount: b.rest[i].remaining})
	}
	clear(b.bids) // drop the bidder strings
	b.bids, b.rest = b.bids[:0], b.rest[:0]
	m.quoted = false
	return refunds
}

// Rate returns the bidder's spend rate in credits/second: its budget over the
// time to its deadline on the market's clock when it was placed or last
// boosted.
func (m *Market) Rate(bidder BidderID) (float64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	at, ok := m.find(bidder)
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownBidder, bidder)
	}
	return m.book.bids[at].Rate, nil
}

// Remaining returns the bidder's unspent budget.
func (m *Market) Remaining(bidder BidderID) (bank.Amount, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	at, ok := m.find(bidder)
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownBidder, bidder)
	}
	return m.book.rest[at].remaining, nil
}

// SpotPrice returns the host's current spot price in credits/second: the sum
// of live spend rates, floored at the reserve price.
func (m *Market) SpotPrice() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.price
}

// PricePerMHz returns the spot price normalized by host capacity — the
// paper's "$/s per CPU cycles/s" unit used in the prediction figures.
func (m *Market) PricePerMHz() float64 {
	return m.SpotPrice() / m.capacity
}

// PriceExcluding returns the sum of live spend rates excluding one bidder:
// the y_j the Best Response optimizer needs (total of *other* bids), floored
// at the reserve price. A sleeping market answers without its lock and stays
// asleep: nothing but a wake-up can enter a bid, so its book is empty, and
// the reserve never changes.
func (m *Market) PriceExcluding(bidder BidderID) float64 {
	if m.asleep.Load() {
		return m.reserve
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	// Float sums over the bids must fold in a fixed order — map-order
	// summation perturbs the spot price in the last bit, and the market
	// amplifies that into visibly different traces run over run. The book's
	// own order is that order: a plain += ascending by bidder, the add
	// sequence the map-book oracle's sortedSum gives. Every bid on the book
	// has budget left, so every one but bidder's counts. An empty book folds
	// to zero.
	var sum float64
	bids := m.book.live()
	for i := range bids {
		if b := &bids[i]; b.Bidder != string(bidder) {
			sum += b.Rate
		}
	}
	if sum < m.reserve {
		sum = m.reserve
	}
	return sum
}

// QuoteShare returns the share of the host bidder would hold if it bid rate
// credits/second now: the book with that bid entered, in place of bidder's
// own if it holds one, quoted through the mechanism's side-effect-free Quote.
// It is what Best Response asks a market whose rule is not proportional
// share, where Rate/(Rate+PriceExcluding) is not the quote. The book, the
// lines shares are served from and the mechanism's state are left as they
// were, and a sleeping market stays asleep.
func (m *Market) QuoteShare(bidder BidderID, rate float64) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	live := m.book.live()
	at, held := m.find(bidder)
	bids := make([]mechanism.Bid, 0, len(live)+1)
	bids = append(bids, live[:at]...)
	bids = append(bids, mechanism.Bid{Bidder: string(bidder), Rate: rate})
	if held {
		at++
	}
	bids = append(bids, live[at:]...)
	l, _ := m.mech.Quote(bids, m.mechCapacity()).Line(string(bidder))
	return l.Fraction
}

// Shares returns the allocation under the current bids, ascending by bidder,
// in a slice of the caller's own (never nil, as it never was).
func (m *Market) Shares() []Share { return m.AppendShares([]Share{}) }

// AppendShares is Shares for a caller that reads them every tick and keeps
// its own buffer: it appends the allocation to dst and returns the extended
// slice. It is one row per bid, the fraction read from the last outcome's
// lines — a merge walk, both ascending by bidder. Between a clear by a
// stateless mechanism and the next change to the book those lines are the
// book's quote already; otherwise the first read quotes the book through the
// mechanism's side-effect-free Quote (stateful mechanisms such as
// posted-price are not advanced).
func (m *Market) AppendShares(dst []Share) []Share {
	m.mu.Lock()
	defer m.mu.Unlock()
	bids := m.book.live()
	if !m.quoted {
		m.keepLines(m.mech.Quote(bids, m.mechCapacity(), m.book.scratch()...))
		m.quoted = true
	}
	at := 0
	for i := range bids {
		b := &bids[i]
		frac := 0.0
		if l, ok := lineFor(m.book.lines, &at, b.Bidder); ok {
			frac = l.Fraction
		}
		dst = append(dst, Share{Bidder: BidderID(b.Bidder), Fraction: frac, Rate: b.Rate, Remaining: m.book.rest[i].remaining})
	}
	return dst
}

// keepLines makes an outcome's lines the book's — the buffer the next clear
// or quote appends to — and returns the outcome. Callers hold m.mu. Only an
// empty book's outcome may have none; the buffer is kept, and the book,
// having no rows, reads nothing from it. A market never bid on has no book
// to keep them in, and no row to read them for.
func (m *Market) keepLines(o mechanism.Outcome) mechanism.Outcome {
	if o.Lines != nil && m.book != nil {
		m.book.lines = o.Lines
	}
	return o
}

// lineFor advances *at through lines (ascending by bidder) to bidder's line
// and reports whether there is one; successive calls ask for ascending
// bidders.
func lineFor(lines []mechanism.Line, at *int, bidder string) (mechanism.Line, bool) {
	for *at < len(lines) && lines[*at].Bidder < bidder {
		*at++
	}
	if *at < len(lines) && lines[*at].Bidder == bidder {
		return lines[*at], true
	}
	return mechanism.Line{}, false
}

// Bidders returns the number of live bids.
func (m *Market) Bidders() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.book.live())
}

func (m *Market) mechCapacity() mechanism.Capacity {
	return mechanism.Capacity{MHz: m.capacity, Reserve: m.reserve}
}

// CountClears adds n executed clears to auction_clears_total. Tick does not
// count itself: whoever runs clears counts them, a plane sweep once for all
// of its clears and a caller that ticks one market once per Tick.
func CountClears(n int) { mClears.Add(uint64(n)) }

// Tick advances the market clock to now, charging each active bidder
// rate * dt (capped at its remaining budget) and expiring exhausted bids.
// It returns the charges and the refunds of bids that expired past their
// deadline with money left (deadline reached: leftover goes back), both
// ascending by bidder, nil when there are none. Both slices are the market's
// own and are valid until its next Tick: a caller that keeps them longer
// clones them. The caller counts the clear (CountClears).
func (m *Market) Tick(now time.Time) (charges []Charge, refunds []Charge) {
	m.lockAwake()
	dt := now.Sub(m.now).Seconds()
	if dt < 0 {
		dt = 0
	}
	m.now = now
	if m.book != nil {
		charges, refunds = m.book.charge(now, dt)
	}

	// Reallocate through the mechanism: it publishes the new spot price and
	// reprices every surviving bid for the coming interval. Bids the
	// mechanism leaves out (e.g. not admitted at the posted price) hold
	// their reservation for free until a later clear admits them.
	//
	// An empty book — almost every host of a wide grid, almost every tick —
	// takes this same path in the same order and allocates nothing on it:
	// the loops have nothing to visit, and the mechanism still clears
	// (posted-price moves its price on empty demand).
	//
	// Quiet is judged before the clear: a mechanism that settles during this
	// clear (posted-price reaching its floor) published its last moving price
	// here, and only the next clear publishes the price that repeats.
	bids := m.book.live()
	m.quiet = len(bids) == 0 && m.mech.Settled(m.mechCapacity())
	cleared := m.keepLines(m.mech.Clear(bids, m.mechCapacity(), m.book.scratch()...))
	at := 0
	for i := range bids {
		l, _ := lineFor(cleared.Lines, &at, bids[i].Bidder) // no line: pay rate 0
		m.book.rest[i].payRate = l.PayRate
	}
	// A stateless mechanism would quote this book exactly as it just cleared
	// it, so the clear's lines are the share table's. One that moved its
	// state in the clear (posted-price) quotes anew at the first read.
	m.quoted = m.mech.Stateless()
	price := cleared.Price
	m.price = price
	// Observe only ever appends, so the elements below this length never
	// change and the slice header is a stable snapshot: no copy needed.
	obs := m.observers
	m.mu.Unlock()

	// Observers run outside the lock so they may call back into the market.
	for _, fn := range obs {
		fn(price, now)
	}
	return charges, refunds
}

// charge is Tick's walk of the book, dt seconds up to now: one pass in
// bidder order charges, expires and compacts, so charges and refunds come out
// sorted, survivors keep their order, and every survivor has budget left.
// Both are the book's own buffers, nil when empty. Callers hold the market
// lock.
func (b *book) charge(now time.Time, dt float64) (charges []Charge, refunds []Charge) {
	charges, refunds = b.charges[:0], b.refunds[:0]
	kept, nowNs := 0, now.UnixNano()
	for i := range b.bids {
		bidder, r := BidderID(b.bids[i].Bidder), &b.rest[i]
		if r.active && dt > 0 {
			owe, err := bank.FromCredits(r.payRate * dt)
			if err != nil || owe < 0 {
				owe = r.remaining
			}
			if owe > r.remaining {
				owe = r.remaining
			}
			if owe > 0 {
				r.remaining -= owe
				charges = append(charges, Charge{Bidder: bidder, Amount: owe})
			}
		}
		if r.remaining <= 0 || nowNs >= r.deadline { // ran dry, or expired
			if r.remaining > 0 {
				refunds = append(refunds, Charge{Bidder: bidder, Amount: r.remaining})
			}
			continue
		}
		b.bids[kept], b.rest[kept] = b.bids[i], *r
		kept++
	}
	clear(b.bids[kept:]) // drop the expired bidders' strings
	b.bids, b.rest = b.bids[:kept], b.rest[:kept]
	b.charges, b.refunds = charges, refunds // keep what append grew
	if len(charges) == 0 {
		charges = nil
	}
	if len(refunds) == 0 {
		refunds = nil
	}
	return charges, refunds
}
