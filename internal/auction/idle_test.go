package auction

import (
	"fmt"
	"slices"
	"sort"
	"testing"
	"time"

	"tycoongrid/internal/bank"
	"tycoongrid/internal/mechanism"
	"tycoongrid/internal/pricefeed"
	"tycoongrid/internal/rng"
	"tycoongrid/internal/sim"
	"tycoongrid/internal/trace"
	"tycoongrid/internal/tracing"
)

// referenceTick is Market.Tick as it stood before an empty book got to skip
// the bid work: every clear snapshots and sorts the live bids, copies the
// observer list and sorts the charge and refund slices, book or no book. It
// is the oracle the differential test below holds Tick to. (Metrics and the
// trace event are left out: they do not feed back into the market.)
func referenceTick(m *Market, now time.Time) (charges []Charge, refunds []Charge) {
	m.mu.Lock()
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
	ids := m.bidderIDsLocked()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	live := make([]mechanism.Bid, 0, len(ids))
	for _, id := range ids {
		if b := m.bids[id]; b.remaining > 0 {
			live = append(live, mechanism.Bid{Bidder: string(id), Rate: b.rate})
		}
	}
	cleared := m.mech.Clear(live, m.mechCapacity())
	for id, b := range m.bids {
		if l, ok := cleared.Line(string(id)); ok {
			b.payRate = l.PayRate
		} else {
			b.payRate = 0
		}
	}
	price := cleared.Price
	m.price = price
	obs := make([]func(float64, time.Time), len(m.observers))
	copy(obs, m.observers)
	m.mu.Unlock()
	for _, fn := range obs {
		fn(price, now)
	}
	sort.Slice(charges, func(i, j int) bool { return charges[i].Bidder < charges[j].Bidder })
	sort.Slice(refunds, func(i, j int) bool { return refunds[i].Bidder < refunds[j].Bidder })
	return charges, refunds
}

type observed struct {
	price float64
	at    time.Time
}

// TestIdleTickMatchesReference runs twin markets — one through Tick, one
// through the pre-change referenceTick — over 2 500 ticks of a mostly idle
// host for each mechanism: long empty stretches, bids landing between two
// idle ticks, books that drain back to empty, an observer registered late.
// Every tick must agree on charges, refunds, spot price, PriceExcluding,
// shares and the observer's samples; at the end the mechanisms' own state
// (the posted price) must agree too.
func TestIdleTickMatchesReference(t *testing.T) {
	for _, name := range mechanism.Names() {
		t.Run(name, func(t *testing.T) {
			src := rng.New(7)
			fast := newMarketWith(t, name, sim.Epoch)
			ref := newMarketWith(t, name, sim.Epoch)
			var fastSeen, refSeen []observed
			fast.Observe(func(p float64, at time.Time) { fastSeen = append(fastSeen, observed{p, at}) })
			ref.Observe(func(p float64, at time.Time) { refSeen = append(refSeen, observed{p, at}) })

			now := sim.Epoch
			idleTicks, busyTicks := 0, 0
			for tick := 0; tick < 2500; tick++ {
				// Between ticks: now and then a bid or two lands on the book,
				// short-lived so the book drains again; sometimes one is
				// withdrawn or parked inactive.
				if src.Intn(20) == 0 {
					for n := 1 + src.Intn(2); n > 0; n-- {
						bidder := BidderID(fmt.Sprintf("u%d", src.Intn(4)))
						budget := bank.Amount(1 + src.Intn(5_000_000))
						deadline := now.Add(time.Duration(1+src.Intn(8)) * DefaultInterval)
						r1, err1 := fast.PlaceBid(bidder, budget, deadline)
						r2, err2 := ref.PlaceBid(bidder, budget, deadline)
						if r1 != r2 || (err1 == nil) != (err2 == nil) {
							t.Fatalf("tick %d: PlaceBid diverged: %v/%v vs %v/%v", tick, r1, err1, r2, err2)
						}
						if src.Intn(3) == 0 {
							_ = fast.SetActive(bidder, false)
							_ = ref.SetActive(bidder, false)
						}
					}
				}
				if src.Intn(40) == 0 {
					bidder := BidderID(fmt.Sprintf("u%d", src.Intn(4)))
					r1, err1 := fast.CancelBid(bidder)
					r2, err2 := ref.CancelBid(bidder)
					if r1 != r2 || (err1 == nil) != (err2 == nil) {
						t.Fatalf("tick %d: CancelBid diverged", tick)
					}
				}
				if tick == 700 {
					fast.Observe(func(p float64, at time.Time) { fastSeen = append(fastSeen, observed{-p, at}) })
					ref.Observe(func(p float64, at time.Time) { refSeen = append(refSeen, observed{-p, at}) })
				}
				if fast.Bidders() == 0 {
					idleTicks++
				} else {
					busyTicks++
				}

				now = now.Add(DefaultInterval)
				c1, f1 := fast.Tick(now)
				c2, f2 := referenceTick(ref, now)
				if !slices.Equal(c1, c2) || !slices.Equal(f1, f2) {
					t.Fatalf("tick %d: charges %v / refunds %v, reference %v / %v", tick, c1, f1, c2, f2)
				}
				if p1, p2 := fast.SpotPrice(), ref.SpotPrice(); p1 != p2 {
					t.Fatalf("tick %d: spot price %v, reference %v", tick, p1, p2)
				}
				if p1, p2 := fast.PriceExcluding("u0"), ref.PriceExcluding("u0"); p1 != p2 {
					t.Fatalf("tick %d: PriceExcluding %v, reference %v", tick, p1, p2)
				}
				if s1, s2 := fast.Shares(), ref.Shares(); !slices.Equal(s1, s2) {
					t.Fatalf("tick %d: shares %+v, reference %+v", tick, s1, s2)
				}
			}
			if idleTicks < 1000 || busyTicks < 100 {
				t.Fatalf("schedule exercised %d idle and %d busy ticks; want >= 1000 and >= 100", idleTicks, busyTicks)
			}
			if len(fastSeen) != len(refSeen) || len(fastSeen) != 2500+1800 {
				t.Fatalf("observers saw %d samples, reference %d, want %d", len(fastSeen), len(refSeen), 2500+1800)
			}
			if !slices.Equal(fastSeen, refSeen) {
				t.Fatal("observer samples differ from the reference's")
			}
			// What the mechanism carries over to the next clear (the posted
			// price) must have moved identically through the idle stretches.
			q1 := fast.mech.Quote(nil, fast.mechCapacity())
			q2 := ref.mech.Quote(nil, ref.mechCapacity())
			if q1.Price != q2.Price {
				t.Fatalf("mechanism state diverged: quotes %v, reference %v", q1.Price, q2.Price)
			}
			if fast.now != ref.now || !fast.now.Equal(now) {
				t.Fatalf("market clocks %v / %v, want %v", fast.now, ref.now, now)
			}
		})
	}
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

// idleHost builds one simulated host's market as experiment.NewWorld wires
// it: a trace.Recorder observer and a pricefeed.Hub observer.
func idleHost(tb testing.TB) *Market {
	tb.Helper()
	quiet := tracing.New(tracing.WithCapacity(8))
	quiet.SetSampleRatio(0)
	m, err := NewMarket(Config{HostID: "h0042", CapacityMHz: 5600, ReservePrice: 1.0 / 3600, Start: sim.Epoch, Tracer: quiet})
	if err != nil {
		tb.Fatal(err)
	}
	m.Observe(trace.NewRecorder().Observer("h0042"))
	m.Observe(pricefeed.NewHub(0).Observer("h0042"))
	return m
}

// TestIdleTickAllocatesNothing is the allocation gate of the idle host-tick:
// clearing an empty book and feeding both price histories must not touch the
// heap once the recorder's series has room. 2 000 warm-up ticks leave the
// series' backing array with several hundred free slots (append grows it by
// a quarter at that size), so no growth falls inside the measured runs — and
// the ring never grows at all.
func TestIdleTickAllocatesNothing(t *testing.T) {
	m := idleHost(t)
	now := sim.Epoch
	for i := 0; i < 2000; i++ {
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
		t.Errorf("idle Tick with recorder and feed observers: %v allocations per tick, want 0", allocs)
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
// cache: the clear of an empty book plus both price histories.
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
