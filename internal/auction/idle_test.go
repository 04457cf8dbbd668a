package auction

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"tycoongrid/internal/bank"
	"tycoongrid/internal/mechanism"
	"tycoongrid/internal/predict"
	"tycoongrid/internal/pricefeed"
	"tycoongrid/internal/rng"
	"tycoongrid/internal/sim"
)

// TestIdleTickMatchesReference runs twin markets — the ordered book and the
// map-book reference it replaced (reference_test.go) — through two schedules
// for each mechanism and compares, bit for bit at every tick, the charges,
// the refunds, the spot price, PriceExcluding for a present and an absent
// bidder, Shares (values and order) and the observers' samples; at the end
// the mechanisms' own state (the posted price) must agree too.
//
// idle: 2 500 ticks of a mostly idle host — long empty stretches, bids
// landing between two idle ticks, books that drain back to empty, an observer
// registered late.
//
// busy: 3 000 ticks of a book of up to 12 bidders under the whole op
// alphabet — boosts, cancels, SetActive flips, re-bids replacing a live bid,
// budgets running dry and deadlines expiring in the same tick, and reads
// between a mutation and the next clear.
func TestIdleTickMatchesReference(t *testing.T) {
	for _, name := range mechanism.Names() {
		t.Run(name+"/idle", func(t *testing.T) {
			src := rng.New(7)
			w := newTwins(t, name, sim.Epoch)
			for tick := 0; tick < 2500; tick++ {
				// Between ticks: now and then a bid or two lands on the book,
				// short-lived so the book drains again; sometimes one is
				// withdrawn or parked inactive.
				if src.Intn(20) == 0 {
					for n := 1 + src.Intn(2); n > 0; n-- {
						bidder := BidderID(fmt.Sprintf("u%02d", src.Intn(4)))
						w.place(bidder, bank.Amount(1+src.Intn(5_000_000)), 1+src.Intn(8))
						if src.Intn(3) == 0 {
							w.setActive(bidder, false)
						}
					}
				}
				if src.Intn(40) == 0 {
					w.cancel(BidderID(fmt.Sprintf("u%02d", src.Intn(4))))
				}
				if tick == 700 {
					w.observe(-1)
				}
				w.tick()
			}
			w.finish()
			if busy := w.ticks - w.idleTicks; w.idleTicks < 1000 || busy < 100 {
				t.Fatalf("schedule exercised %d idle and %d busy ticks; want >= 1000 and >= 100", w.idleTicks, busy)
			}
			if w.samples != 2500+1800 {
				t.Fatalf("observers saw %d samples, want %d", w.samples, 2500+1800)
			}
		})
		t.Run(name+"/busy", func(t *testing.T) {
			src := rng.New(11)
			w := newTwins(t, name, sim.Epoch)
			for w.ticks < 3000 {
				// The book is topped up towards a wandering target, so it
				// spends time at every size from 1 to 12; the other operations
				// mostly aim at a bidder that is on the book.
				target := 1 + (w.ticks/40)%12
				for n := src.Intn(5); n > 0; n-- {
					op, who := byte(src.Intn(6)), byte(src.Intn(12)) // everything but tick
					if book := w.fast.Shares(); len(book) < target {
						op = 0
						for slices.ContainsFunc(book, func(s Share) bool { return s.Bidder == bidderName(who) }) {
							who = (who + 1) % 12
						}
					} else if src.Intn(4) > 0 {
						fmt.Sscanf(string(book[src.Intn(len(book))].Bidder), "u%d", &who)
					}
					w.bookOp(op, who, byte(src.Intn(256)))
				}
				w.tick()
			}
			w.finish()
			if w.maxBook < 12 || w.idleTicks > w.ticks/10 {
				t.Errorf("book reached %d bidders with %d of %d ticks idle; want 12 and mostly busy", w.maxBook, w.idleTicks, w.ticks)
			}
			if w.boosts < 100 || w.cancels < 100 || w.rebids < 100 || w.flips < 100 {
				t.Errorf("schedule made %d boosts, %d cancels, %d re-bids, %d SetActive calls; want >= 100 of each",
					w.boosts, w.cancels, w.rebids, w.flips)
			}
			if w.exhausted < 50 || w.expired < 50 || w.exhaustedAndExpired < 5 {
				t.Errorf("%d ticks ran a budget dry, %d expired a deadline, %d did both; want >= 50, 50, 5",
					w.exhausted, w.expired, w.exhaustedAndExpired)
			}
		})
	}
}

// FuzzBookOps feeds the twins arbitrary sequences of the book-op alphabet,
// three bytes an operation, under every mechanism; the twins fail at the
// first difference between the ordered book and the map-book reference, and
// after any operation at which a bid on either book has no budget left or the
// market's mechanism is handed anything but its book, which must be the map
// book's live bids in bidder order.
func FuzzBookOps(f *testing.F) {
	f.Add([]byte{0, 3, 9, 0, 1, 200, 6, 0, 0, 2, 3, 50, 5, 0, 0, 6, 0, 0})                 // bid, bid, tick, boost, read, tick
	f.Add([]byte{0, 5, 4, 0, 5, 77, 3, 5, 0, 6, 0, 0, 0, 7, 8, 4, 7, 1, 6, 0, 0, 6, 0, 0}) // dry bid, re-bid, cancel, park
	f.Add([]byte{1, 0, 1, 1, 1, 2, 1, 2, 3, 1, 3, 5, 6, 0, 0, 6, 0, 0, 6, 0, 0, 6, 0, 0, 6, 0, 0, 6, 0, 0, 6, 0, 0, 6, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 3*400 {
			ops = ops[:3*400]
		}
		for _, name := range mechanism.Names() {
			w := newTwins(t, name, sim.Epoch)
			for ; len(ops) >= 3; ops = ops[3:] {
				w.bookOp(ops[0], ops[1], ops[2])
			}
			w.tick()
			w.finish()
		}
	})
}

// TestBidRunDryLeavesTheBook: a budget that rounding runs dry before its
// deadline — 3 µc over four intervals is charged 1 µc a clear — leaves the
// book at the clear that drains it, without a refund, so the mechanism is
// never handed a bid with no budget left. The book-op alphabet's bids run dry
// only at their deadline, where they expire anyway.
func TestBidRunDryLeavesTheBook(t *testing.T) {
	w := newTwins(t, mechanism.Proportional, sim.Epoch)
	w.place("u01", 3, 4)
	w.place("u02", 40_000, 4)
	for i := 0; i < 3; i++ {
		w.tick()
	}
	if n := w.fast.Bidders(); n != 1 || w.exhausted != 1 {
		t.Fatalf("after three clears the book holds %d bids and %d ticks ran a budget dry, want 1 and 1", n, w.exhausted)
	}
	w.tick()
	w.finish()
}

// TestPostedPriceMovesOnIdleTicks pins the reason an empty book may not skip
// the mechanism: posted-price lowers its price on empty demand.
func TestPostedPriceMovesOnIdleTicks(t *testing.T) {
	mech, err := mechanism.New(mechanism.PostedPrice, mechanism.Config{PostedInitialPrice: 1})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMarket(Config{HostID: "h", CapacityMHz: 2800, ReservePrice: 0.001, Start: sim.Epoch, Mechanism: mech})
	if err != nil {
		t.Fatal(err)
	}
	m.Tick(sim.Epoch.Add(DefaultInterval))
	first := m.SpotPrice()
	m.Tick(sim.Epoch.Add(2 * DefaultInterval))
	if second := m.SpotPrice(); !(second < first) {
		t.Errorf("posted price stayed at %v over an idle tick (was %v)", second, first)
	}
}

// runRingSlots is the capacity of idleHost's history ring.
const runRingSlots = 4000

// idleHost builds one simulated host's market as an experiment world that
// reads a whole run under a meta-scheduler wires it: the market's one price
// history, asked for by the agent's forecast window and raised by the run to
// runRingSlots, and the agent's streaming forecast model beside it.
func idleHost(tb testing.TB) *Market {
	tb.Helper()
	m, err := NewMarket(Config{HostID: "h0042", CapacityMHz: 5600, ReservePrice: 1.0 / 3600, Start: sim.Epoch})
	if err != nil {
		tb.Fatal(err)
	}
	ring := m.History(pricefeed.DefaultCapacity)
	model, err := predict.NewStreaming(predict.StreamingAR, predict.PredictorConfig{Window: pricefeed.DefaultCapacity, Step: DefaultInterval})
	if err != nil {
		tb.Fatal(err)
	}
	m.Observe(func(price float64, at time.Time) { _ = model.Observe(price, at) })
	if run := m.History(runRingSlots); run != ring || run.Capacity() != runRingSlots {
		tb.Fatalf("the run's history is another ring, or holds %d slots, want the agent's raised to %d", run.Capacity(), runRingSlots)
	}
	return m
}

// TestIdleTickAllocatesNothing is the allocation gate of the idle host-tick:
// clearing an empty book and feeding the market's price history and the
// forecast model must not touch the heap. The ring's buffer, and the model's
// window, grows with the samples it holds until it reaches its capacity, and
// from then on wraps around in place; the warm-up fills both past their
// capacities, so the ticks measured are the steady state and not a stretch
// between two growths (AllocsPerRun truncates: one growth in 101 ticks would
// read as 0).
func TestIdleTickAllocatesNothing(t *testing.T) {
	m := idleHost(t)
	now := sim.Epoch
	for i := 0; i < runRingSlots+100; i++ {
		now = now.Add(DefaultInterval)
		m.Tick(now)
	}
	if ring := m.History(0); ring.Len() != runRingSlots || ring.Lost() != 100 {
		t.Fatalf("after the warm-up the ring holds %d samples and lost %d, want %d and 100", ring.Len(), ring.Lost(), runRingSlots)
	}
	allocs := testing.AllocsPerRun(100, func() {
		now = now.Add(DefaultInterval)
		if charges, refunds := m.Tick(now); charges != nil || refunds != nil {
			t.Fatal("idle tick produced charges")
		}
	})
	if allocs != 0 {
		t.Errorf("idle Tick with the history ring and a model observer: %v allocations per tick, want 0", allocs)
	}
}

func TestPriceExcludingEmptyBookAllocatesNothing(t *testing.T) {
	m := idleHost(t)
	var price float64
	allocs := testing.AllocsPerRun(100, func() { price = m.PriceExcluding("broker/job-0001") })
	if allocs != 0 {
		t.Errorf("PriceExcluding on an empty book: %v allocations, want 0", allocs)
	}
	if price != 1.0/3600 {
		t.Errorf("PriceExcluding on an empty book = %v, want the reserve %v", price, 1.0/3600)
	}
}

// BenchmarkTickIdle is the unit cost of an idle host-tick with everything in
// cache: the clear of an empty book plus the price history and the forecast
// model.
func BenchmarkTickIdle(b *testing.B) {
	m := idleHost(b)
	now := sim.Epoch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now = now.Add(DefaultInterval)
		m.Tick(now)
	}
}

// TestBookRetentionAllocationBound: what a busy market keeps between clears —
// its book and the scratch its clears reuse — is at most maxPerMarket bytes
// of heap, the market itself included. 2 000 markets each take 12 bids, from
// bidders whose names are kept alive and so are not counted, and clear
// twice. It read ≈ 3 565 B while the market kept a 72-byte bid record,
// the mechanism's input projected from it and a share table beside the last
// outcome's lines, each at its high-water mark.
func TestBookRetentionAllocationBound(t *testing.T) {
	const markets, bids, maxPerMarket = 2000, 12, 2400
	hosts := make([]string, markets)
	for i := range hosts {
		hosts[i] = fmt.Sprintf("h%04d", i)
	}
	names := make([]BidderID, bids)
	for i := range names {
		names[i] = bidderName(byte(i))
	}
	ms := make([]*Market, markets)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range ms {
		m, err := NewMarket(Config{HostID: hosts[i], CapacityMHz: 2800, Start: sim.Epoch})
		if err != nil {
			t.Fatal(err)
		}
		ms[i] = m
		for j := range names {
			// A different arrival order per market, so the book is built by
			// inserts anywhere, not only appends.
			who := names[(j*5+i)%bids]
			if _, err := m.PlaceBid(who, bank.Amount(1+j)*bank.Credit, sim.Epoch.Add(time.Hour)); err != nil {
				t.Fatal(err)
			}
		}
		m.Tick(sim.Epoch.Add(DefaultInterval))
		m.Tick(sim.Epoch.Add(2 * DefaultInterval))
		if n := m.Bidders(); n != bids {
			t.Fatalf("market %d holds %d bids after two clears, want %d", i, n, bids)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(ms)
	runtime.KeepAlive(hosts)
	runtime.KeepAlive(names)
	per := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / markets
	if per > maxPerMarket {
		t.Errorf("a market with %d bids keeps %.0f B of heap, want <= %d", bids, per, maxPerMarket)
	} else {
		t.Logf("a market with %d bids keeps %.0f B of heap", bids, per)
	}
}
