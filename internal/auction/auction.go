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
package auction

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tycoongrid/internal/bank"
	"tycoongrid/internal/mathx"
	"tycoongrid/internal/mechanism"
	"tycoongrid/internal/metrics"
	"tycoongrid/internal/tracing"
)

// DefaultInterval is the paper's reallocation period.
const DefaultInterval = 10 * time.Second

// BidderID identifies a market participant (typically a bank account id).
type BidderID string

// bidState is the market's record of one bidder.
type bidState struct {
	bidder    BidderID
	remaining bank.Amount // unspent budget
	deadline  time.Time
	rate      float64 // credits/second, fixed until boost or re-bid
	payRate   float64 // credits/second charged while active; set by the mechanism at each clear
	active    bool    // consuming CPU this interval (charged only if true)
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

// Market is one host's auction. Safe for concurrent use.
type Market struct {
	mu        sync.Mutex
	hostID    string
	capacity  float64 // MHz
	reserve   float64 // reserve price, credits/second, floor for the spot price
	bids      map[BidderID]*bidState
	price     float64 // spot price at last reallocation, credits/second
	now       time.Time
	observers []func(price float64, at time.Time)
	// obs2 is inline room for the first two observers (a grid host's plane
	// cache and price feed): wiring 10 000 markets allocates nothing for them.
	obs2 [2]func(price float64, at time.Time)
	mech mechanism.Mechanism // clearing rule; proportional share by default

	// Sleep state (see Sleep). quiet: the last clear was of an empty book by a
	// settled mechanism, so every further idle clear would publish m.price
	// again. waker is non-nil while the market is asleep, and asleep mirrors
	// that for Sync's lock-free look; wakeMu serialises wake-ups, so nobody
	// enters the market while one is replaying.
	quiet  bool
	waker  Waker
	asleep atomic.Bool
	wakeMu sync.Mutex

	priceGauge *metrics.Gauge  // this host's auction_clearing_price child
	tracer     *tracing.Tracer // per-world scope source; Default unless injected
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
	// Tracer supplies the active job scope for the auditable auction trail.
	// Nil means the process-wide tracing.Default(). Replicated experiments
	// inject a per-world tracer so concurrent worlds never share scopes.
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
	tr := cfg.Tracer
	if tr == nil {
		tr = tracing.Default()
	}
	mech := cfg.Mechanism
	if mech == nil {
		mech, _ = mechanism.New(mechanism.Proportional, mechanism.Config{})
	}
	m := &Market{
		tracer:     tr,
		mech:       mech,
		hostID:     cfg.HostID,
		capacity:   cfg.CapacityMHz,
		reserve:    reserve,
		bids:       make(map[BidderID]*bidState),
		price:      reserve,
		now:        cfg.Start,
		priceGauge: mClearingPrice.With(cfg.HostID),
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
	if !m.quiet || len(m.bids) != 0 || m.waker != nil {
		return false
	}
	m.waker = w
	m.asleep.Store(true)
	return true
}

// Sync wakes the market if it is asleep, so that everything its observers
// feed (price rings, recorders, predictors) is up to date. Read such state
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
	if old, ok := m.bids[bidder]; ok {
		refund = old.remaining
	}
	rate := budget.Credits() / horizon
	m.bids[bidder] = &bidState{
		bidder:    bidder,
		remaining: budget,
		deadline:  deadline,
		rate:      rate,
		// Until the next clear prices this bid, it pays its own reported
		// rate — for proportional share that is also the final pay rate,
		// which keeps the legacy charge sequence bit-identical.
		payRate: rate,
		active:  true,
	}
	mBidsPlaced.Inc()
	mBidBudget.Observe(budget.Credits())
	// Auditable auction trail: when a job scope is active (the agent bidding
	// on this job's behalf), record the auctioneer's view of the bid.
	if s := m.tracer.Current(); s.Recording() {
		s.AddEventAt(m.now, "auction.bid",
			tracing.String("host", m.hostID),
			tracing.String("bidder", string(bidder)),
			tracing.String("rate", fmt.Sprintf("%.6f", m.bids[bidder].rate)))
	}
	return refund, nil
}

// Boost adds funds to an existing bid and recomputes the spend rate over the
// remaining time to the deadline — the paper's mechanism for making a
// submitted job complete sooner.
func (m *Market) Boost(bidder BidderID, extra bank.Amount) error {
	if extra <= 0 {
		return fmt.Errorf("%w: non-positive boost", ErrBadBid)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.bids[bidder]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownBidder, bidder)
	}
	b.remaining += extra
	horizon := b.deadline.Sub(m.now).Seconds()
	if horizon <= 0 {
		horizon = DefaultInterval.Seconds()
	}
	b.rate = b.remaining.Credits() / horizon
	b.payRate = b.rate // boosted spend applies immediately, repriced at next clear
	mBoosts.Inc()
	return nil
}

// SetActive marks whether bidder is consuming CPU. Inactive bidders keep
// their share reserved at zero cost — "Tycoon only charges for resources
// actually used".
func (m *Market) SetActive(bidder BidderID, active bool) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.bids[bidder]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownBidder, bidder)
	}
	b.active = active
	return nil
}

// CancelBid withdraws a bid, returning the unspent budget for refund.
func (m *Market) CancelBid(bidder BidderID) (bank.Amount, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.bids[bidder]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownBidder, bidder)
	}
	delete(m.bids, bidder)
	mBidsCancelled.Inc()
	return b.remaining, nil
}

// Remaining returns the bidder's unspent budget.
func (m *Market) Remaining(bidder BidderID) (bank.Amount, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.bids[bidder]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownBidder, bidder)
	}
	return b.remaining, nil
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
	if len(m.bids) == 0 {
		return m.reserve // an empty book folds to zero, floored at the reserve
	}
	sum := mathx.SortedSum(m.bidderIDsLocked(), func(id BidderID) (float64, bool) {
		b := m.bids[id]
		return b.rate, id != bidder && b.remaining > 0
	})
	if sum < m.reserve {
		sum = m.reserve
	}
	return sum
}

// bidderIDsLocked collects the bidder ids in map order; mathx.SortedSum
// sorts them before folding. Float sums over the bids must fold in a fixed
// order: map-order summation perturbs the spot price in the last bit, and
// the market amplifies that into visibly different traces run over run.
func (m *Market) bidderIDsLocked() []BidderID {
	ids := make([]BidderID, 0, len(m.bids))
	for id := range m.bids {
		ids = append(ids, id)
	}
	return ids
}

// Shares returns the allocation under the current bids, computed by the
// mechanism's side-effect-free Quote (stateful mechanisms such as
// posted-price are not advanced), sorted by bidder for determinism.
func (m *Market) Shares() []Share {
	m.mu.Lock()
	defer m.mu.Unlock()
	quote := m.mech.Quote(m.liveBidsLocked(), m.mechCapacity())
	out := make([]Share, 0, len(m.bids))
	for _, b := range m.bids {
		frac := 0.0
		if l, ok := quote.Line(string(b.bidder)); ok {
			frac = l.Fraction
		}
		out = append(out, Share{Bidder: b.bidder, Fraction: frac, Rate: b.rate, Remaining: b.remaining})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Bidder < out[j].Bidder })
	return out
}

// Bidders returns the number of live bids.
func (m *Market) Bidders() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.bids)
}

// liveBidsLocked snapshots the live bids (unspent budget remaining) in the
// mechanism's input shape: ascending bidder order, unique bidders. The
// ascending order is load-bearing — the proportional mechanism folds rates in
// slice order, which must equal the legacy mathx.SortedSum sequence for
// bit-identical spot prices.
func (m *Market) liveBidsLocked() []mechanism.Bid {
	if len(m.bids) == 0 {
		return nil
	}
	out := make([]mechanism.Bid, 0, len(m.bids))
	for id, b := range m.bids {
		if b.remaining > 0 {
			out = append(out, mechanism.Bid{Bidder: string(id), Rate: b.rate})
		}
	}
	slices.SortFunc(out, func(a, b mechanism.Bid) int { return strings.Compare(a.Bidder, b.Bidder) })
	return out
}

func (m *Market) mechCapacity() mechanism.Capacity {
	return mechanism.Capacity{MHz: m.capacity, Reserve: m.reserve}
}

// Tick advances the market clock to now, charging each active bidder
// rate * dt (capped at its remaining budget) and expiring exhausted bids.
// It returns the charges and the refunds of bids that expired past their
// deadline with money left (deadline reached: leftover goes back).
func (m *Market) Tick(now time.Time) (charges []Charge, refunds []Charge) {
	wallStart := time.Now()
	m.lockAwake()
	dt := now.Sub(m.now).Seconds()
	if dt < 0 {
		dt = 0
	}
	m.now = now

	for id, b := range m.bids {
		if b.active && b.remaining > 0 && dt > 0 {
			owe, err := bank.FromCredits(b.payRate * dt)
			if err != nil || owe < 0 {
				owe = b.remaining
			}
			if owe > b.remaining {
				owe = b.remaining
			}
			if owe > 0 {
				b.remaining -= owe
				charges = append(charges, Charge{Bidder: id, Amount: owe})
			}
		}
		expired := !now.Before(b.deadline)
		if b.remaining <= 0 || expired {
			if b.remaining > 0 {
				refunds = append(refunds, Charge{Bidder: id, Amount: b.remaining})
			}
			delete(m.bids, id)
			mBidsExpired.Inc()
		}
	}

	// Reallocate through the mechanism: it publishes the new spot price and
	// reprices every surviving bid for the coming interval. Bids the
	// mechanism leaves out (e.g. not admitted at the posted price) hold
	// their reservation for free until a later clear admits them.
	//
	// An empty book — almost every host of a wide grid, almost every tick —
	// takes this same path in the same order and allocates nothing on it:
	// the loops have nothing to visit, the snapshot is nil, and the
	// mechanism still clears (posted-price moves its price on empty demand).
	//
	// Quiet is judged before the clear: a mechanism that settles during this
	// clear (posted-price reaching its floor) published its last moving price
	// here, and only the next clear publishes the price that repeats.
	m.quiet = len(m.bids) == 0 && m.mech.Settled(m.mechCapacity())
	cleared := m.mech.Clear(m.liveBidsLocked(), m.mechCapacity())
	for id, b := range m.bids {
		if l, ok := cleared.Line(string(id)); ok {
			b.payRate = l.PayRate
		} else {
			b.payRate = 0
		}
	}
	price := cleared.Price
	m.price = price
	// Observe only ever appends, so the elements below this length never
	// change and the slice header is a stable snapshot: no copy needed.
	obs := m.observers
	m.mu.Unlock()

	mClears.Inc()
	m.priceGauge.Set(price)
	// Hot path: with no active scope (the common case — ticks run from the
	// engine pump) this is a single atomic load and a nil check.
	if s := m.tracer.Current(); s.Recording() {
		s.AddEventAt(now, "auction.clear",
			tracing.String("host", m.hostID),
			tracing.String("price", fmt.Sprintf("%.6f", price)),
			tracing.String("charges", fmt.Sprintf("%d", len(charges))))
		// The exemplar pins this exact clear's trace to whatever latency
		// bucket it lands in, so a fleet p99 regression links to a trace.
		mClearSeconds.ObserveExemplar(time.Since(wallStart).Seconds(), s.Context().TraceID.String())
	} else {
		mClearSeconds.Observe(time.Since(wallStart).Seconds())
	}

	// Observers run outside the lock so they may call back into the market.
	for _, fn := range obs {
		fn(price, now)
	}

	sortCharges(charges)
	sortCharges(refunds)
	return charges, refunds
}

// sortCharges orders charges ascending by bidder (bidders are unique within
// one clear, so the order is total).
func sortCharges(cs []Charge) {
	if len(cs) > 1 {
		sort.Slice(cs, func(i, j int) bool { return cs[i].Bidder < cs[j].Bidder })
	}
}

// DeliveredMHz returns the CPU capacity a bidder with the given share
// fraction receives, the quantity the paper's Figure 3 plots against budget.
func (m *Market) DeliveredMHz(fraction float64) float64 {
	return m.capacity * math.Max(0, math.Min(1, fraction))
}
