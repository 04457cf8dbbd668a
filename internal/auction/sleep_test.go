package auction

import (
	"testing"
	"time"

	"tycoongrid/internal/bank"
	"tycoongrid/internal/mechanism"
	"tycoongrid/internal/sim"
)

// napDriver is the least a market's driver does: tick the market at every
// instant unless it sleeps, remember the instants a sleeping market misses,
// and replay them when the market wakes.
type napDriver struct {
	m      *Market
	asleep bool
	missed []time.Time
}

func (d *napDriver) tick(at time.Time) (charges, refunds []Charge) {
	if d.asleep {
		d.missed = append(d.missed, at)
		return nil, nil
	}
	charges, refunds = d.m.Tick(at)
	d.asleep = d.m.Sleep(d)
	return charges, refunds
}

func (d *napDriver) Wake(replay func(at time.Time)) {
	d.asleep = false
	for _, at := range d.missed {
		replay(at)
	}
	d.missed = nil
}

type priceAt struct {
	price float64
	at    time.Time
}

func recordInto(out *[]priceAt) func(float64, time.Time) {
	return func(price float64, at time.Time) { *out = append(*out, priceAt{price, at}) }
}

func tickAt(i int) time.Time { return sim.Epoch.Add(time.Duration(i) * DefaultInterval) }

// A market sleeps only when nothing can happen on it: the book is empty and
// the mechanism's idle clear has stopped moving. Posted-price, raised by a
// bid, keeps clearing until the price it publishes is the one it will publish
// for ever — one clear after its state reached the floor.
func TestSleepOnlyWhenQuiet(t *testing.T) {
	noWake := &napDriver{}
	for _, name := range mechanism.Names() {
		t.Run(name, func(t *testing.T) {
			m := newMarketWith(t, name, sim.Epoch)
			if m.Sleep(noWake) {
				t.Fatal("a market that has never cleared fell asleep")
			}
			// 3 credits over 25 s: the bid is spent by the third tick.
			if _, err := m.PlaceBid("b", 3*bank.Credit, tickAt(0).Add(25*time.Second)); err != nil {
				t.Fatal(err)
			}
			i := 1
			for ; m.Bidders() > 0; i++ {
				m.Tick(tickAt(i))
				if m.Bidders() > 0 && m.Sleep(noWake) {
					t.Fatalf("tick %d: fell asleep holding a bid", i)
				}
			}
			// The book is empty. Whatever the rule, the market may sleep only
			// once the price it last published is the price of every idle
			// clear to come.
			twin := newMarketWith(t, name, sim.Epoch)
			for ; !m.Sleep(noWake); i++ {
				if i > 500 {
					t.Fatal("an idle market never fell asleep")
				}
				m.Tick(tickAt(i))
			}
			slept := m.SpotPrice()
			if name == mechanism.PostedPrice && i < 10 {
				t.Errorf("posted-price slept after %d ticks, while its raised price was still decaying", i)
			}
			for k := 0; k < 50; k++ { // the idle fixed point, from a market that was never raised
				twin.Tick(tickAt(k + 1))
			}
			if twin.SpotPrice() != slept {
				t.Errorf("fell asleep at price %v, but idle clears settle at %v", slept, twin.SpotPrice())
			}
			if m.Sleep(noWake) {
				t.Error("a sleeping market fell asleep again")
			}
		})
	}
}

// Whatever first touches a sleeping market — a bid, a tick, a subscriber, a
// sync — finds it as if it had been ticked all along: the observers it had
// got one sample per missed instant, in order, at the price it slept on; its
// clock stands at the last of them; a subscriber that arrives now gets none
// of them; and the market counted no clear, replayed or real (its driver
// counts the clears it runs, CountClears). Asking a sleeping market its
// price is not a touch: the answer is what a twin that was ticked all along
// gives under its lock, and the market sleeps on, owing what it owed.
func TestSleepingMarketWakesBeforeAnythingCanTell(t *testing.T) {
	const missed = 7
	touches := map[string]func(m *Market){
		"PlaceBid": func(m *Market) {
			if _, err := m.PlaceBid("x", bank.Credit, tickAt(1000)); err != nil {
				t.Error(err)
			}
		},
		"Tick":    func(m *Market) { m.Tick(tickAt(1 + missed)) },
		"Observe": func(m *Market) { m.Observe(func(float64, time.Time) {}) },
		"Sync":    func(m *Market) { m.Sync() },
	}
	for name, touch := range touches {
		t.Run(name, func(t *testing.T) {
			m := newMarketWith(t, mechanism.Proportional, sim.Epoch)
			var seen []priceAt
			m.Observe(recordInto(&seen))
			d := &napDriver{m: m}
			for i := 1; i <= 1+missed; i++ {
				d.tick(tickAt(i))
			}
			if !d.asleep || len(seen) != 1 {
				t.Fatalf("after %d idle ticks: asleep=%v, %d samples delivered; want asleep since the first", 1+missed, d.asleep, len(seen))
			}
			twin := newMarketWith(t, mechanism.Proportional, sim.Epoch)
			for i := 1; i <= 1+missed; i++ {
				twin.Tick(tickAt(i))
			}
			if got, want := m.PriceExcluding("x"), twin.PriceExcluding("x"); got != want {
				t.Errorf("asleep for %d ticks: PriceExcluding = %v, a market that never slept says %v", missed, got, want)
			}
			if !d.asleep || !m.asleep.Load() || len(seen) != 1 || len(d.missed) != missed {
				t.Fatalf("after PriceExcluding: driver asleep=%v market asleep=%v, %d samples, %d instants owed; want the market still asleep, 1 and %d",
					d.asleep, m.asleep.Load(), len(seen), len(d.missed), missed)
			}
			clears := mClears.Value()
			touch(m)
			if d.asleep {
				t.Fatal("the touch did not wake the market")
			}
			if got := mClears.Value() - clears; got != 0 {
				t.Errorf("the market counted %d clears, want 0: replays are not clears, and a Tick's driver counts it", got)
			}
			if name == "Tick" {
				// The tick itself was at the last missed instant: a real
				// clear, after the replay.
				seen = seen[:len(seen)-1]
			}
			if len(seen) != 1+missed {
				t.Fatalf("%d samples after the wake, want %d", len(seen), 1+missed)
			}
			for i, s := range seen {
				if want := tickAt(i + 1); !s.at.Equal(want) || s.price != seen[0].price {
					t.Errorf("sample %d = %v at %v, want %v at %v", i, s.price, s.at, seen[0].price, want)
				}
			}

			// The clock: a bid placed now is amortized from the last missed
			// instant, and its first charge covers one interval from there.
			var late []priceAt
			m.Observe(recordInto(&late))
			last := tickAt(1 + missed)
			if _, err := m.PlaceBid("probe", 100*bank.Credit, last.Add(1000*time.Second)); err != nil {
				t.Fatal(err)
			}
			charges, _ := m.Tick(last.Add(DefaultInterval))
			var got bank.Amount
			for _, c := range charges {
				if c.Bidder == "probe" {
					got = c.Amount
				}
			}
			if got != bank.Credit {
				t.Errorf("first charge %v, want one interval of 0.1 credits/s from a clock at %v", got, last)
			}
			if len(late) != 1 || !late[0].at.Equal(last.Add(DefaultInterval)) {
				t.Errorf("a subscriber that came after the wake saw %v, want only the clear that followed", late)
			}
		})
	}
}

// A subscriber first seen after fifty idle ticks receives nothing older than
// its subscription, although the market replays those fifty to the observers
// it already had.
func TestLateSubscriberGetsNoReplayedSamples(t *testing.T) {
	m := newMarketWith(t, mechanism.Proportional, sim.Epoch)
	var early, late []priceAt
	m.Observe(recordInto(&early))
	d := &napDriver{m: m}
	for i := 1; i <= 50; i++ {
		d.tick(tickAt(i))
	}
	m.Observe(recordInto(&late))
	if len(early) != 50 {
		t.Errorf("the early subscriber has %d samples, want 50", len(early))
	}
	if len(late) != 0 {
		t.Errorf("the late subscriber was handed %d samples from before it subscribed", len(late))
	}
	d.tick(tickAt(51))
	if len(early) != 51 || len(late) != 1 {
		t.Errorf("after the next clear: %d and %d samples, want 51 and 1", len(early), len(late))
	}
}
