package auction

import (
	"fmt"
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
// first difference between the ordered book and the map-book reference.
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

// runRingSlots is the capacity of idleHost's run-long ring.
const runRingSlots = 4000

// idleHost builds one simulated host's market as an experiment world that
// reads a whole run under a meta-scheduler wires it: three observers, a
// run-long pricefeed.Ring, the agent's feed ring and its streaming forecast
// model.
func idleHost(tb testing.TB) *Market {
	tb.Helper()
	m, err := NewMarket(Config{HostID: "h0042", CapacityMHz: 5600, ReservePrice: 1.0 / 3600, Start: sim.Epoch})
	if err != nil {
		tb.Fatal(err)
	}
	run, err := pricefeed.NewRing(runRingSlots)
	if err != nil {
		tb.Fatal(err)
	}
	m.Observe(func(price float64, at time.Time) { _ = run.Observe(at, price) })
	feed, _ := pricefeed.NewRing(pricefeed.DefaultCapacity)
	m.Observe(feed.Observer())
	model, err := predict.NewStreaming(predict.StreamingAR, predict.PredictorConfig{Window: pricefeed.DefaultCapacity, Step: DefaultInterval})
	if err != nil {
		tb.Fatal(err)
	}
	m.Observe(func(price float64, at time.Time) { _ = model.Observe(price, at) })
	return m
}

// TestIdleTickAllocatesNothing is the allocation gate of the idle host-tick:
// clearing an empty book and feeding both price histories and the forecast
// model must not touch the heap. Each ring's buffer, and the model's window,
// grows with the samples it holds until it reaches its capacity, and from
// then on wraps around in place; the warm-up fills all three past their
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
	allocs := testing.AllocsPerRun(100, func() {
		now = now.Add(DefaultInterval)
		if charges, refunds := m.Tick(now); charges != nil || refunds != nil {
			t.Fatal("idle tick produced charges")
		}
	})
	if allocs != 0 {
		t.Errorf("idle Tick with run ring, feed ring and model observers: %v allocations per tick, want 0", allocs)
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
// cache: the clear of an empty book plus both price histories and the
// forecast model.
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
