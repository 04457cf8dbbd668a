package auction

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"tycoongrid/internal/bank"
	"tycoongrid/internal/mechanism"
)

// refMarket is the market as it stood while the book was a map keyed by
// bidder: every read collects the map, sorts it and folds it with
// sortedSum, every clear sorts its charges and refunds afterwards, and
// Shares runs the mechanism's Quote each time it is asked. It is kept here,
// whole and independent of Market's internals, as the oracle the ordered book
// is held to bit for bit. (Metrics, tracing and sleep are left out: they do
// not feed back into the market.)
type refMarket struct {
	capacity, reserve float64
	bids              map[BidderID]*refBid
	price             float64
	now               time.Time
	observers         []func(float64, time.Time)
	mech              mechanism.Mechanism
}

type refBid struct {
	remaining     bank.Amount
	deadline      time.Time
	rate, payRate float64
	active        bool
}

// newRefMarket mirrors newMarketWith.
func newRefMarket(t *testing.T, name string, start time.Time) *refMarket {
	t.Helper()
	mech, err := mechanism.New(name, mechanism.Config{})
	if err != nil {
		t.Fatalf("mechanism %q: %v", name, err)
	}
	return &refMarket{capacity: 3000, reserve: 0.001, price: 0.001, now: start,
		bids: map[BidderID]*refBid{}, mech: mech}
}

func (m *refMarket) Observe(fn func(float64, time.Time)) { m.observers = append(m.observers, fn) }
func (m *refMarket) SpotPrice() float64                  { return m.price }
func (m *refMarket) Bidders() int                        { return len(m.bids) }

func (m *refMarket) cap() mechanism.Capacity {
	return mechanism.Capacity{MHz: m.capacity, Reserve: m.reserve}
}

func (m *refMarket) PlaceBid(bidder BidderID, budget bank.Amount, deadline time.Time) (bank.Amount, error) {
	if bidder == "" || budget <= 0 {
		return 0, ErrBadBid
	}
	horizon := deadline.Sub(m.now).Seconds()
	if horizon <= 0 {
		return 0, ErrBadBid
	}
	var refund bank.Amount
	if old, ok := m.bids[bidder]; ok {
		refund = old.remaining
	}
	rate := budget.Credits() / horizon
	m.bids[bidder] = &refBid{remaining: budget, deadline: deadline, rate: rate, payRate: rate, active: true}
	return refund, nil
}

func (m *refMarket) Boost(bidder BidderID, extra bank.Amount) error {
	if extra <= 0 {
		return ErrBadBid
	}
	b, ok := m.bids[bidder]
	if !ok {
		return ErrUnknownBidder
	}
	b.remaining += extra
	horizon := b.deadline.Sub(m.now).Seconds()
	if horizon <= 0 {
		horizon = DefaultInterval.Seconds()
	}
	b.rate = b.remaining.Credits() / horizon
	b.payRate = b.rate
	return nil
}

func (m *refMarket) SetActive(bidder BidderID, active bool) error {
	b, ok := m.bids[bidder]
	if !ok {
		return ErrUnknownBidder
	}
	b.active = active
	return nil
}

func (m *refMarket) CancelBid(bidder BidderID) (bank.Amount, error) {
	b, ok := m.bids[bidder]
	if !ok {
		return 0, ErrUnknownBidder
	}
	delete(m.bids, bidder)
	return b.remaining, nil
}

func (m *refMarket) ids() []BidderID {
	ids := make([]BidderID, 0, len(m.bids))
	for id := range m.bids {
		ids = append(ids, id)
	}
	return ids
}

func (m *refMarket) PriceExcluding(bidder BidderID) float64 {
	if len(m.bids) == 0 {
		return m.reserve
	}
	sum := sortedSum(m.ids(), func(id BidderID) (float64, bool) {
		b := m.bids[id]
		return b.rate, id != bidder && b.remaining > 0
	})
	if sum < m.reserve {
		sum = m.reserve
	}
	return sum
}

func (m *refMarket) live() []mechanism.Bid {
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

func (m *refMarket) Shares() []Share {
	quote := m.mech.Quote(m.live(), m.cap())
	out := make([]Share, 0, len(m.bids))
	for id, b := range m.bids {
		frac := 0.0
		if l, ok := quote.Line(string(id)); ok {
			frac = l.Fraction
		}
		out = append(out, Share{Bidder: id, Fraction: frac, Rate: b.rate, Remaining: b.remaining})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Bidder < out[j].Bidder })
	return out
}

func (m *refMarket) Tick(now time.Time) (charges, refunds []Charge) {
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
		}
	}
	cleared := m.mech.Clear(m.live(), m.cap())
	for id, b := range m.bids {
		if l, ok := cleared.Line(string(id)); ok {
			b.payRate = l.PayRate
		} else {
			b.payRate = 0
		}
	}
	m.price = cleared.Price
	for _, fn := range m.observers {
		fn(m.price, now)
	}
	sort.Slice(charges, func(i, j int) bool { return charges[i].Bidder < charges[j].Bidder })
	sort.Slice(refunds, func(i, j int) bool { return refunds[i].Bidder < refunds[j].Bidder })
	return charges, refunds
}

type observed struct {
	price float64
	at    time.Time
}

// twins drives a Market and the map-book reference through the same
// operations and fails the test at the first observable difference. The
// market's mechanism is wrapped in a bookSpy, and every operation ends with
// checkBook and compare.
type twins struct {
	t    *testing.T
	fast *Market
	mech mechanism.Mechanism // the market's own, unwrapped
	ref  *refMarket
	now  time.Time

	fastSeen, refSeen []observed // samples not yet compared
	samples           int        // samples compared equal

	// What the schedule has exercised so far.
	ticks, idleTicks, maxBook               int
	boosts, cancels, rebids, flips          int
	exhausted, expired, exhaustedAndExpired int
}

func newTwins(t *testing.T, mech string, start time.Time) *twins {
	w := &twins{t: t, fast: newMarketWith(t, mech, start), ref: newRefMarket(t, mech, start), now: start}
	w.mech = w.fast.mech
	w.fast.mech = &bookSpy{Mechanism: w.mech, t: t, m: w.fast}
	w.observe(1)
	return w
}

// bookSpy is a market's mechanism that checks, at every quote and clear,
// that it is handed the market's book itself — the first column, not a copy
// or a projection of it — and that the book holds the invariant checkBook
// checks. The market calls it under its lock.
type bookSpy struct {
	mechanism.Mechanism
	t *testing.T
	m *Market
}

func (s *bookSpy) Quote(bids []mechanism.Bid, c mechanism.Capacity, dst ...mechanism.Line) mechanism.Outcome {
	s.check("Quote", bids)
	return s.Mechanism.Quote(bids, c, dst...)
}

func (s *bookSpy) Clear(bids []mechanism.Bid, c mechanism.Capacity, dst ...mechanism.Line) mechanism.Outcome {
	s.check("Clear", bids)
	return s.Mechanism.Clear(bids, c, dst...)
}

func (s *bookSpy) check(op string, bids []mechanism.Bid) {
	s.t.Helper()
	book, rest := columns(s.m)
	if len(bids) != len(book) || (len(bids) > 0 && &bids[0] != &book[0]) {
		s.t.Fatalf("%s was handed %d bids that are not the book's %d", op, len(bids), len(book))
	}
	if err := bookRows(book, rest); err != nil {
		s.t.Fatalf("%s was handed a book that %v", op, err)
	}
}

// columns returns a market's book as its two columns, none before its first
// bid. Callers hold the market lock.
func columns(m *Market) ([]mechanism.Bid, []bidRest) {
	if m.book == nil {
		return nil, nil
	}
	return m.book.bids, m.book.rest
}

// bookRows reports how a book's two columns break the invariant the market
// rests on, or nil: one row per bid in each, ascending by unique bidder,
// every row with budget left.
func bookRows(bids []mechanism.Bid, rest []bidRest) error {
	if len(bids) != len(rest) {
		return fmt.Errorf("has %d bids and %d rest rows", len(bids), len(rest))
	}
	for i := range bids {
		if i > 0 && bids[i-1].Bidder >= bids[i].Bidder {
			return fmt.Errorf("holds %q after %q", bids[i].Bidder, bids[i-1].Bidder)
		}
		if rest[i].remaining <= 0 {
			return fmt.Errorf("holds %q with %v left", bids[i].Bidder, rest[i].remaining)
		}
	}
	return nil
}

// checkBook holds both books to that invariant between operations: the
// market's rows are ascending, unique and funded, every bid of the map book
// has budget left, and the market's first column is exactly the map book's
// live projection — what the reference hands its mechanism.
func (w *twins) checkBook() {
	w.t.Helper()
	w.fast.mu.Lock()
	book, rest := columns(w.fast)
	bids, err := slices.Clone(book), bookRows(book, rest)
	w.fast.mu.Unlock()
	if err != nil {
		w.t.Fatalf("tick %d: the book %v", w.ticks, err)
	}
	for id, b := range w.ref.bids {
		if b.remaining <= 0 {
			w.t.Fatalf("tick %d: the reference holds %q with %v left", w.ticks, id, b.remaining)
		}
	}
	if live := w.ref.live(); !slices.Equal(bids, live) {
		w.t.Fatalf("tick %d: the book's bids %+v, the reference's live bids %+v", w.ticks, bids, live)
	}
}

// observe subscribes an observer to both markets; sign tells its samples
// apart from an earlier subscriber's.
func (w *twins) observe(sign float64) {
	w.fast.Observe(func(p float64, at time.Time) { w.fastSeen = append(w.fastSeen, observed{sign * p, at}) })
	w.ref.Observe(func(p float64, at time.Time) { w.refSeen = append(w.refSeen, observed{sign * p, at}) })
}

func (w *twins) place(bidder BidderID, budget bank.Amount, intervals int) {
	w.t.Helper()
	deadline := w.now.Add(time.Duration(intervals) * DefaultInterval)
	_, had := w.ref.bids[bidder]
	r1, err1 := w.fast.PlaceBid(bidder, budget, deadline)
	r2, err2 := w.ref.PlaceBid(bidder, budget, deadline)
	if r1 != r2 || (err1 == nil) != (err2 == nil) {
		w.t.Fatalf("tick %d: PlaceBid(%s) = %v, %v; reference %v, %v", w.ticks, bidder, r1, err1, r2, err2)
	}
	if had && err1 == nil {
		w.rebids++
	}
}

func (w *twins) boost(bidder BidderID, extra bank.Amount) {
	w.t.Helper()
	err1, err2 := w.fast.Boost(bidder, extra), w.ref.Boost(bidder, extra)
	if (err1 == nil) != (err2 == nil) {
		w.t.Fatalf("tick %d: Boost(%s) = %v; reference %v", w.ticks, bidder, err1, err2)
	}
	if err1 == nil {
		w.boosts++
	}
}

func (w *twins) cancel(bidder BidderID) {
	w.t.Helper()
	r1, err1 := w.fast.CancelBid(bidder)
	r2, err2 := w.ref.CancelBid(bidder)
	if r1 != r2 || (err1 == nil) != (err2 == nil) {
		w.t.Fatalf("tick %d: CancelBid(%s) = %v, %v; reference %v, %v", w.ticks, bidder, r1, err1, r2, err2)
	}
	if err1 == nil {
		w.cancels++
	}
}

func (w *twins) setActive(bidder BidderID, active bool) {
	w.t.Helper()
	err1, err2 := w.fast.SetActive(bidder, active), w.ref.SetActive(bidder, active)
	if (err1 == nil) != (err2 == nil) {
		w.t.Fatalf("tick %d: SetActive(%s) = %v; reference %v", w.ticks, bidder, err1, err2)
	}
	if err1 == nil {
		w.flips++
	}
}

// tick clears both markets one interval on and compares what came out.
func (w *twins) tick() {
	w.t.Helper()
	before := w.ref.Bidders()
	if before == 0 {
		w.idleTicks++
	}
	w.maxBook = max(w.maxBook, before)
	w.now = w.now.Add(DefaultInterval)
	c1, f1 := w.fast.Tick(w.now)
	c2, f2 := w.ref.Tick(w.now)
	if !slices.Equal(c1, c2) || !slices.Equal(f1, f2) {
		w.t.Fatalf("tick %d: charges %v / refunds %v, reference %v / %v", w.ticks, c1, f1, c2, f2)
	}
	// A bid that left the book without a refund ran its budget dry.
	dry := before - w.ref.Bidders() - len(f2)
	if dry > 0 {
		w.exhausted++
	}
	if len(f2) > 0 {
		w.expired++
	}
	if dry > 0 && len(f2) > 0 {
		w.exhaustedAndExpired++
	}
	w.ticks++
	w.checkBook()
	w.compare()
}

// compare checks every read the two markets offer. It is called after every
// tick, and by the schedules after operations too: a read between a mutation
// and the next clear is where a stale share table would show.
func (w *twins) compare() {
	w.t.Helper()
	if p1, p2 := w.fast.SpotPrice(), w.ref.SpotPrice(); p1 != p2 {
		w.t.Fatalf("tick %d: spot price %v, reference %v", w.ticks, p1, p2)
	}
	// A bidder that may be on the book, and one that never is.
	for _, who := range []BidderID{"u03", "nobody"} {
		if p1, p2 := w.fast.PriceExcluding(who), w.ref.PriceExcluding(who); p1 != p2 {
			w.t.Fatalf("tick %d: PriceExcluding(%s) %v, reference %v", w.ticks, who, p1, p2)
		}
	}
	s1, s2 := w.fast.Shares(), w.ref.Shares()
	if !slices.Equal(s1, s2) {
		w.t.Fatalf("tick %d: shares %+v, reference %+v", w.ticks, s1, s2)
	}
	if s3 := w.fast.AppendShares(nil); !slices.Equal(s3, s2) {
		w.t.Fatalf("tick %d: AppendShares %+v, reference %+v", w.ticks, s3, s2)
	}
	if n1, n2 := w.fast.Bidders(), w.ref.Bidders(); n1 != n2 {
		w.t.Fatalf("tick %d: %d bidders, reference %d", w.ticks, n1, n2)
	}
	if !slices.Equal(w.fastSeen, w.refSeen) {
		w.t.Fatalf("tick %d: observer samples differ from the reference's", w.ticks)
	}
	// The samples are compared; keep the comparison linear over a long run.
	w.samples += len(w.refSeen)
	w.fastSeen, w.refSeen = w.fastSeen[:0], w.refSeen[:0]
}

// finish compares what only shows at the end: the state the mechanism carries
// to its next clear (the posted price) and the market clocks.
func (w *twins) finish() {
	w.t.Helper()
	q1 := w.mech.Quote(nil, w.fast.mechCapacity())
	q2 := w.ref.mech.Quote(nil, w.ref.cap())
	if q1.Price != q2.Price {
		w.t.Fatalf("mechanism state diverged: quotes %v, reference %v", q1.Price, q2.Price)
	}
	if w.fast.now != w.ref.now.UnixNano() || !w.ref.now.Equal(w.now) {
		w.t.Fatalf("market clocks %v / %v, want %v", time.Unix(0, w.fast.now).UTC(), w.ref.now, w.now)
	}
}

// bookOp applies one operation of the book-op alphabet, chosen by three
// bytes: what to do, to whom (one of 12 bidders), and how much, and then
// checks the books and compares every read. It is the alphabet both the
// busy-book schedule and FuzzBookOps draw from.
func (w *twins) bookOp(op, who, arg byte) {
	w.t.Helper()
	bidder := bidderName(who)
	switch op % 8 {
	case 0, 1: // a bid (a re-bid when the bidder holds one), sized to last or to run dry
		budget := bank.Amount(1+int(arg)) * 40_000
		if arg%4 == 0 {
			budget = bank.Amount(1 + int(arg)) // a few microcredits: dry within a tick
		}
		w.place(bidder, budget, 1+int(arg%16))
	case 2:
		w.boost(bidder, bank.Amount(1+int(arg))*10_000)
	case 3:
		w.cancel(bidder)
	case 4:
		w.setActive(bidder, arg%2 == 0)
	case 5: // a read, with nothing changed since the last one
		w.compare()
	default:
		w.tick()
		return
	}
	w.checkBook()
	w.compare()
}

// bidderName is the who-th of the alphabet's 12 bidders.
func bidderName(who byte) BidderID { return BidderID(fmt.Sprintf("u%02d", who%12)) }

// sortedSum folds value(k) over keys in ascending key order and returns the
// plain (uncompensated) float64 sum of every contribution whose ok result is
// true: the map book's deterministic float fold. Map-order summation perturbs
// totals in the last bit, and the market amplifies that into visibly
// different traces run over run, so every price-like sum — the auction's spot
// price, a shard's batched clear — folds in this fixed order. Plain += is
// deliberate: compensated summation would change results in the last ulp and
// break bit-for-bit compatibility with recorded baselines.
//
// keys is sorted in place; callers pass a scratch slice they own.
func sortedSum[K cmp.Ordered](keys []K, value func(K) (float64, bool)) float64 {
	slices.Sort(keys)
	var sum float64
	for _, k := range keys {
		if v, ok := value(k); ok {
			sum += v
		}
	}
	return sum
}
