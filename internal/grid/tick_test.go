package grid

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"tycoongrid/internal/auction"
	"tycoongrid/internal/bank"
	"tycoongrid/internal/sim"
)

// charge is one settled charge, stamped with the tick that delivered it.
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
	c.OnSettle = eachSettled(func(_ string, ch auction.Charge) {
		if ch.Bidder == watch {
			*seen = append(*seen, charge{eng.Now(), ch.Amount})
		}
	}, nil)
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

// An OnDone that runs while host h00 advances may change the book of h01,
// which advances after it in the same tick: h01's tasks must progress by the
// shares of the book as it then stands, not by the table its clear left a
// moment earlier. Here h00's callback cancels one of h01's bids, boosts
// another and places a new one; in that very tick the cancelled bidder's task
// stands still, the new bidder's task starts moving, and all move by exactly
// what the market quotes for the changed book. (A share table handed down
// from the clear — riding the tick's results — would get all three wrong.)
func TestMidTickBookChangeReachesLaterHostsShares(t *testing.T) {
	c, eng := testCluster(t, 2)
	hour := eng.Now().Add(time.Hour)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	bid := func(host string, who auction.BidderID, credits bank.Amount) {
		t.Helper()
		_, err := c.PlaceBid(host, who, credits*bank.Credit, hour)
		must(err)
	}
	h01, err := c.Host("h01")
	must(err)
	var actedAt time.Time
	bid("h00", "trigger", 10)
	// 25 CPU-seconds at a full processor: done in the third tick.
	_, err = c.StartTask("h00", "trigger", nil, 25*2800, func(*Task) {
		actedAt = eng.Now()
		_, err := h01.Market.CancelBid("gone")
		must(err)
		must(c.Boost("h01", "boosted", 90*bank.Credit))
		_, err = c.PlaceBid("h01", "fresh", 50*bank.Credit, hour)
		must(err)
	})
	must(err)
	bid("h01", "gone", 36)
	bid("h01", "boosted", 36)
	bid("h01", "steady", 72)
	tasks := map[auction.BidderID]*Task{}
	for _, who := range []auction.BidderID{"gone", "boosted", "steady", "fresh"} {
		// fresh has a task but no bid yet: no share, no progress.
		tasks[who], err = c.StartTask("h01", who, nil, 1e9, nil)
		must(err)
	}

	eng.RunFor(20 * time.Second)
	before := map[auction.BidderID]float64{}
	for who, task := range tasks {
		before[who] = task.Work
	}
	if before["fresh"] != 1e9 || before["gone"] == 1e9 {
		t.Fatalf("before the change: fresh has %v of 1e9 left, gone %v", before["fresh"], before["gone"])
	}
	eng.RunFor(10 * time.Second) // the third tick: h00 finishes, its callback acts, h01 advances
	if want := sim.Epoch.Add(30 * time.Second); !actedAt.Equal(want) {
		t.Fatalf("the callback ran at %v, want the third tick %v", actedAt, want)
	}
	// Nothing has touched h01's book since the callback, so what the market
	// quotes now is what the advance had to go by.
	quoted := map[auction.BidderID]float64{}
	for _, s := range h01.Market.Shares() {
		quoted[s.Bidder] = s.Fraction
	}
	if _, held := quoted["gone"]; held || quoted["fresh"] <= 0 || len(quoted) != 3 {
		t.Fatalf("h01's book after the callback: %v", quoted)
	}
	for who, task := range tasks {
		rate := quoted[who] * h01.TotalMHz()
		if rate > h01.PerCPUMHz() {
			rate = h01.PerCPUMHz()
		}
		// Work is of the order of 1e9: the subtraction keeps about 1e-6.
		if got, want := before[who]-task.Work, rate*10; math.Abs(got-want) > 1e-3 {
			t.Errorf("%s advanced by %v MHz-s in the tick of the change, want %v (share %v of the changed book)",
				who, got, want, quoted[who])
		}
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

// TestTaskShareRowMatchesSearch holds the share row a task remembers to the
// binary search it stands in for. Two clusters run one schedule; in the twin
// every task forgets its row before every tick, so each advance searches the
// share table. Between ticks a bid is cancelled, two expire and one arrives
// that sorts first, each moving the row of every bidder after it,
// while two owners run two tasks each and one task has no bid until late.
// After every tick each task's remaining work and completion instant are
// bit-equal in the two, and the schedule is shown to have moved rows.
func TestTaskShareRowMatchesSearch(t *testing.T) {
	type world struct {
		c     *Cluster
		eng   *sim.Engine
		tasks []*Task
	}
	build := func() world {
		c, eng := testCluster(t, 1)
		w := world{c: c, eng: eng}
		hour := eng.Now().Add(time.Hour)
		bids := []struct {
			who      auction.BidderID
			credits  bank.Amount
			deadline time.Time
		}{
			{"b1", 30, hour},
			{"b2", 40, hour},
			{"b3", 50, eng.Now().Add(45 * time.Second)}, // expires at the fifth tick
			{"b4", 60, hour},
			{"b5", 10, eng.Now().Add(115 * time.Second)}, // expires at the twelfth tick
			{"b6", 80, hour},
		}
		for _, b := range bids {
			if _, err := c.PlaceBid("h00", b.who, b.credits*bank.Credit, b.deadline); err != nil {
				t.Fatal(err)
			}
		}
		for _, task := range []struct {
			who  auction.BidderID
			work float64
		}{
			{"b0", 1e9}, {"b1", 1e9}, {"b2", 20 * 2800}, {"b2", 1e9}, {"b3", 1e9},
			{"b4", 35 * 2800}, {"b4", 1e9}, {"b5", 1e9}, {"b6", 60 * 2800},
		} {
			tk, err := c.StartTask("h00", task.who, nil, task.work, nil)
			if err != nil {
				t.Fatal(err)
			}
			w.tasks = append(w.tasks, tk)
		}
		return w
	}
	hinted, searched := build(), build()
	ops := map[int]func(w world){
		2: func(w world) { // every row after b1's moves up
			h, _ := w.c.Host("h00")
			if _, err := h.Market.CancelBid("b1"); err != nil {
				t.Fatal(err)
			}
		},
		7: func(w world) { // b0 sorts first: every row moves down
			if _, err := w.c.PlaceBid("h00", "b0", 90*bank.Credit, w.eng.Now().Add(time.Hour)); err != nil {
				t.Fatal(err)
			}
		},
	}
	moved := 0
	for tick := 1; tick <= 40; tick++ {
		if op := ops[tick]; op != nil {
			op(hinted)
			op(searched)
		}
		was := make([]int, len(hinted.tasks))
		for i, tk := range hinted.tasks {
			was[i] = tk.shareAt
		}
		for _, tk := range searched.tasks {
			tk.shareAt = -1
		}
		hinted.eng.RunFor(10 * time.Second)
		searched.eng.RunFor(10 * time.Second)
		for i, tk := range hinted.tasks {
			twin := searched.tasks[i]
			if math.Float64bits(tk.Work) != math.Float64bits(twin.Work) || !tk.DoneAt.Equal(twin.DoneAt) {
				t.Fatalf("tick %d: %s of %s has %v left, done at %v; searching every tick, %v left, done at %v",
					tick, tk.ID, tk.Owner, tk.Work, tk.DoneAt, twin.Work, twin.DoneAt)
			}
			if was[i] >= 0 && tk.shareAt >= 0 && tk.shareAt != was[i] {
				moved++
			}
		}
	}
	h, _ := hinted.c.Host("h00")
	if moved < 3 || h.RunningTasks() == len(hinted.tasks) {
		t.Fatalf("%d remembered rows moved and %d of %d tasks still run: the schedule does not exercise the hint",
			moved, h.RunningTasks(), len(hinted.tasks))
	}
	if n := h.Market.Bidders(); n != 4 {
		t.Errorf("%d bids left, want b0, b2, b4 and b6", n)
	}
}
