package grid

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"tycoongrid/internal/auction"
	"tycoongrid/internal/bank"
	"tycoongrid/internal/sim"
)

// charge is one OnCharge delivery, stamped with the tick that delivered it.
type charge struct {
	at     time.Time
	amount bank.Amount
}

// twoHostsFinishingTogether builds hosts h00 < h01 with one 25-CPU-second
// task each, so both finish in the third tick (t = 30 s). When the task on
// host from finishes, its OnDone runs act. The charges of bidder watch are
// returned through the pointer.
func twoHostsFinishingTogether(t *testing.T, from string, watch auction.BidderID, act func(c *Cluster)) (*Cluster, *sim.Engine, *[]charge) {
	t.Helper()
	c, eng := testCluster(t, 2)
	seen := new([]charge)
	c.OnCharge = func(_ string, ch auction.Charge) {
		if ch.Bidder == watch {
			*seen = append(*seen, charge{eng.Now(), ch.Amount})
		}
	}
	for _, host := range []string{"h00", "h01"} {
		owner := auction.BidderID("owner-" + host)
		if _, err := c.PlaceBid(host, owner, 10*bank.Credit, eng.Now().Add(time.Hour)); err != nil {
			t.Fatal(err)
		}
		var onDone func(*Task)
		if host == from {
			onDone = func(*Task) { act(c) }
		}
		if _, err := c.StartTask(host, owner, nil, 25*2800, onDone); err != nil {
			t.Fatal(err)
		}
	}
	return c, eng, seen
}

var bothDirections = [][2]string{{"h00", "h01"}, {"h01", "h00"}}

// A bid placed from an OnDone callback lands on a market that has already
// cleared this tick, whichever host it is on: its first charge arrives at the
// next tick and covers exactly one interval. (When markets cleared inside the
// host walk, a bid placed on a later-ordered host was charged in the same
// sweep, for an interval it had not been in the book.)
func TestMidTickBidAccruesFromNextClear(t *testing.T) {
	for _, dir := range bothDirections {
		from, to := dir[0], dir[1]
		t.Run(from+"_bids_on_"+to, func(t *testing.T) {
			var placedAt time.Time
			_, eng, fresh := twoHostsFinishingTogether(t, from, "fresh", func(c *Cluster) {
				placedAt = c.engine.Now()
				// 100 credits over 1 000 s: 0.1 credits/s, one credit a tick.
				if _, err := c.PlaceBid(to, "fresh", 100*bank.Credit, placedAt.Add(1000*time.Second)); err != nil {
					t.Error(err)
				}
			})
			eng.RunFor(time.Minute)
			if want := sim.Epoch.Add(30 * time.Second); !placedAt.Equal(want) {
				t.Fatalf("the bid was placed at %v, want the third tick %v", placedAt, want)
			}
			if len(*fresh) == 0 {
				t.Fatal("the fresh bid was never charged")
			}
			first := (*fresh)[0]
			if want := placedAt.Add(10 * time.Second); !first.at.Equal(want) {
				t.Errorf("first charge at %v, want the next tick %v", first.at, want)
			}
			if first.amount != bank.Credit {
				t.Errorf("first charge = %v, want one interval's worth, %v", first.amount, bank.Credit)
			}
		})
	}
}

// A bid cancelled from an OnDone callback has already paid for the interval
// that just cleared, whichever host it is on. (When markets cleared inside
// the host walk, cancelling a bid on a later-ordered host removed it before
// that host's clear, and the interval it had held went unpaid.)
func TestMidTickCancelStillPaysClearedInterval(t *testing.T) {
	for _, dir := range bothDirections {
		from, to := dir[0], dir[1]
		t.Run(from+"_cancels_on_"+to, func(t *testing.T) {
			c, eng, paid := twoHostsFinishingTogether(t, from, "victim", func(c *Cluster) {
				h, err := c.Host(to)
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := h.Market.CancelBid("victim"); err != nil {
					t.Error(err)
				}
			})
			// 36 credits over an hour: 0.01 credits/s, 0.1 credits a tick.
			if _, err := c.PlaceBid(to, "victim", 36*bank.Credit, eng.Now().Add(time.Hour)); err != nil {
				t.Fatal(err)
			}
			eng.RunFor(time.Minute)
			// Held from t = 0 until the cancel at t = 30 s: three intervals.
			if len(*paid) != 3 {
				t.Fatalf("the cancelled bid paid %d intervals, want 3: %v", len(*paid), *paid)
			}
			for i, ch := range *paid {
				if want := sim.Epoch.Add(time.Duration(i+1) * 10 * time.Second); !ch.at.Equal(want) || ch.amount != bank.Credit/10 {
					t.Errorf("charge %d = %v at %v, want %v at %v", i, ch.amount, ch.at, bank.Credit/10, want)
				}
			}
		})
	}
}

// TestIdleTickAllocationBound gates the bytes an all-idle tick allocates, at
// two cluster sizes: the bound is a constant, so nothing may be allocated per
// host — in particular the plane's result slice (56 B a host) is reused, not
// rebuilt. Bytes rather than allocation counts, because one result slice per
// tick is a single allocation however many hosts it covers.
func TestIdleTickAllocationBound(t *testing.T) {
	const ticks, maxBytesPerTick = 100, 512
	for _, hosts := range []int{100, 1000} {
		eng := sim.NewEngine()
		specs := make([]HostSpec, hosts)
		for i := range specs {
			specs[i] = HostSpec{ID: fmt.Sprintf("h%04d", i), CPUs: 2, CPUMHz: 2800}
		}
		c, err := New(eng, Config{Hosts: specs})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < ticks; i++ { // warm: metric children, lazily built state
			c.tick()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < ticks; i++ {
			c.tick()
		}
		runtime.ReadMemStats(&after)
		if perTick := (after.TotalAlloc - before.TotalAlloc) / ticks; perTick > maxBytesPerTick {
			t.Errorf("%d idle hosts: %d B allocated per tick, want <= %d", hosts, perTick, maxBytesPerTick)
		}
	}
}
