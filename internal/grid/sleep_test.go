package grid

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"tycoongrid/internal/auction"
	"tycoongrid/internal/bank"
	"tycoongrid/internal/metrics"
	"tycoongrid/internal/pricefeed"
	"tycoongrid/internal/sim"
)

// observedCluster is a cluster with what experiment worlds hang on every
// market — the agent's price-feed ring and a ring sized to the whole run —
// and a log of every charge and refund.
type observedCluster struct {
	*Cluster
	eng   *sim.Engine
	feed  map[string]*pricefeed.Ring
	run   map[string]*pricefeed.Ring
	money []string
}

// rejectedSamples reads pricefeed_samples_rejected_total out of a snapshot
// of the default registry: what the feed rings refused.
func rejectedSamples() uint64 {
	for _, c := range metrics.Default().Snapshot().Counters {
		if c.Name == "pricefeed_samples_rejected_total" {
			return c.Value
		}
	}
	return 0
}

func newObservedCluster(t *testing.T, hosts int) *observedCluster {
	t.Helper()
	eng := sim.NewEngine()
	specs := make([]HostSpec, hosts)
	for i := range specs {
		specs[i] = HostSpec{ID: fmt.Sprintf("h%02d", i), CPUs: 2, CPUMHz: 2800, MaxVMs: 30}
	}
	c, err := New(eng, Config{Hosts: specs, PurgeIdleAfter: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	w := &observedCluster{Cluster: c, eng: eng, feed: map[string]*pricefeed.Ring{}, run: map[string]*pricefeed.Ring{}}
	for _, h := range c.list {
		feed, _ := pricefeed.NewRing(pricefeed.DefaultCapacity)
		w.feed[h.Spec.ID] = feed
		h.Market.Observe(feed.Observer())
		ring, err := pricefeed.NewRing(1000)
		if err != nil {
			t.Fatal(err)
		}
		w.run[h.Spec.ID] = ring
		// It refuses what the feed rings refuse (a recovery's clear at a
		// tick instant repeats that instant), and their observers count those.
		h.Market.Observe(func(price float64, at time.Time) { _ = ring.Observe(at, price) })
	}
	c.OnSettle = eachSettled(func(host string, ch auction.Charge) {
		w.money = append(w.money, fmt.Sprintf("%v charge %s %s %v", eng.Now().Sub(sim.Epoch), host, ch.Bidder, ch.Amount))
	}, func(host string, ch auction.Charge) {
		w.money = append(w.money, fmt.Sprintf("%v refund %s %s %v", eng.Now().Sub(sim.Epoch), host, ch.Bidder, ch.Amount))
	})
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	return w
}

// Everything that can happen to a host that has been asleep for a while — it
// fails, it recovers, it is handed a task, it is bid on through the cluster
// or by someone holding its Market — leaves the feed rings, the run rings,
// the price cache and the money exactly as on a twin whose every market is
// woken before every tick, and so never sleeps through one.
func TestAsleepHostsMatchATwinThatNeverSleeps(t *testing.T) {
	const hosts, ticks = 6, 90
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	script := map[int]func(w *observedCluster){
		20: func(w *observedCluster) { // asleep since the first tick
			_, err := w.FailHost("h01")
			must(err)
		},
		24: func(w *observedCluster) { // a bid straight on a sleeping host's market
			h, _ := w.Host("h02")
			_, err := h.Market.PlaceBid("direct", 40*bank.Credit, w.eng.Now().Add(6*time.Minute))
			must(err)
			_, err = w.StartTask("h02", "direct", nil, 100*2800, nil)
			must(err)
		},
		31: func(w *observedCluster) { // recovery between two ticks
			w.eng.RunFor(3 * time.Second)
			must(w.RecoverHost("h01"))
		},
		35: func(w *observedCluster) { // a task first, its bid later
			_, err := w.StartTask("h03", "late", nil, 50*2800, nil)
			must(err)
		},
		40: func(w *observedCluster) {
			_, err := w.PlaceBid("h03", "late", 20*bank.Credit, w.eng.Now().Add(4*time.Minute))
			must(err)
			_, err = w.PlaceBid("h01", "back", 5*bank.Credit, w.eng.Now().Add(time.Minute))
			must(err)
		},
		60: func(w *observedCluster) { // bids die with a host that was awake
			_, err := w.PlaceBid("h04", "doomed", 30*bank.Credit, w.eng.Now().Add(time.Hour))
			must(err)
		},
		63: func(w *observedCluster) {
			_, err := w.FailHost("h04")
			must(err)
		},
		70: func(w *observedCluster) { must(w.RecoverHost("h04")) },
	}
	run := func(neverSleep bool) *observedCluster {
		w := newObservedCluster(t, hosts)
		for k := 1; k <= ticks; k++ {
			if neverSleep {
				w.Sync()
			}
			w.eng.RunFor(w.Interval())
			if act := script[k]; act != nil {
				act(w)
			}
		}
		return w
	}
	rejected := rejectedSamples()
	got, want := run(false), run(true)

	behind := 0
	for _, id := range got.HostIDs() {
		if got.feed[id].Len() < want.feed[id].Len() {
			behind++
		}
	}
	if behind == 0 {
		t.Error("no host is asleep at the end of the run: the test compares nothing")
	}
	got.Sync()
	want.Sync()
	for i, id := range got.HostIDs() {
		g, w := got.feed[id].Samples(), want.feed[id].Samples()
		if !reflect.DeepEqual(g, w) {
			t.Errorf("%s: ring holds %d samples, the twin's %d, or they differ", id, len(g), len(w))
		}
		// The feed ring has room for the whole run here, so it holds what
		// the run ring holds.
		if r := got.run[id].Samples(); !reflect.DeepEqual(r, g) {
			t.Errorf("%s: run ring holds %d samples, the feed ring %d, or they differ", id, len(r), len(g))
		}
		if g, w := got.run[id].Samples(), want.run[id].Samples(); !reflect.DeepEqual(g, w) {
			t.Errorf("%s: run ring holds %d samples, the twin's %d, or they differ", id, len(g), len(w))
		}
		if g, w := got.plane.PriceAt(i), want.plane.PriceAt(i); g != w || g != got.list[i].Market.SpotPrice() {
			t.Errorf("%s: cached price %v, the twin's %v, spot %v", id, g, w, got.list[i].Market.SpotPrice())
		}
	}
	if !reflect.DeepEqual(got.money, want.money) {
		t.Errorf("charges and refunds differ from the twin's:\n%v\n%v", got.money, want.money)
	}
	if n := rejectedSamples() - rejected; len(got.money) == 0 || n != 0 {
		t.Errorf("%d charges, %d samples rejected; want some and none", len(got.money), n)
	}
}

// The plane's price cache used to keep a failed host's last spot price until
// the next sweep reached the host. It follows the market now: the clear that
// recovery runs refreshes it.
func TestPriceCacheFreshAfterRecovery(t *testing.T) {
	c, eng := testCluster(t, 2)
	if _, err := c.PlaceBid("h00", "alice", 100*bank.Credit, eng.Now().Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	eng.RunFor(2 * c.Interval())
	h, _ := c.Host("h00")
	bid := c.plane.PriceAt(0)
	if bid != h.Market.SpotPrice() || bid < 1 {
		t.Fatalf("cached price %v with a live bid, spot %v", bid, h.Market.SpotPrice())
	}
	if _, err := c.FailHost("h00"); err != nil {
		t.Fatal(err)
	}
	eng.RunFor(c.Interval() / 2)
	if err := c.RecoverHost("h00"); err != nil {
		t.Fatal(err)
	}
	if got, spot := c.plane.PriceAt(0), h.Market.SpotPrice(); got != spot || got >= bid {
		t.Errorf("after recovery, before any tick: cached price %v, spot %v (pre-failure %v)", got, spot, bid)
	}
}

// clearsTotal reads auction_clears_total out of a snapshot of the default
// registry.
func clearsTotal() uint64 {
	for _, c := range metrics.Default().Snapshot().Counters {
		if c.Name == "auction_clears_total" {
			return c.Value
		}
	}
	return 0
}

// TestSleepingWorldTickAllocationBound is the counting gate on what an idle
// host costs a tick: nothing. In a 10 000-host world with a price ring on
// every market, 100 ticks execute no clear and allocate a constant; and the
// hosts are owed, and on Sync handed, exactly one sample per tick.
func TestSleepingWorldTickAllocationBound(t *testing.T) {
	const hosts, ticks, maxBytesPerTick = 10000, 100, 512
	eng := sim.NewEngine()
	specs := make([]HostSpec, hosts)
	for i := range specs {
		specs[i] = HostSpec{ID: fmt.Sprintf("h%05d", i), CPUs: 2, CPUMHz: 2800}
	}
	c, err := New(eng, Config{Hosts: specs, PurgeIdleAfter: 10 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	feed := make([]*pricefeed.Ring, hosts)
	for i, h := range c.list {
		feed[i], _ = pricefeed.NewRing(pricefeed.DefaultCapacity)
		h.Market.Observe(feed[i].Observer())
	}
	step := func() {
		eng.RunFor(c.Interval())
		c.tick()
	}
	const warm = 6
	for i := 0; i < warm; i++ {
		step()
	}
	clears := clearsTotal()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < ticks; i++ {
		step()
	}
	runtime.ReadMemStats(&after)
	if got := clearsTotal() - clears; got != 0 {
		t.Errorf("%d clears executed over %d idle ticks, want 0", got, ticks)
	}
	if perTick := (after.TotalAlloc - before.TotalAlloc) / ticks; perTick > maxBytesPerTick {
		t.Errorf("%d B allocated per idle tick, want <= %d", perTick, maxBytesPerTick)
	}
	c.Sync()
	for i, h := range c.list {
		samples := feed[i].Samples()
		if len(samples) != warm+ticks {
			t.Fatalf("%s: ring holds %d samples after Sync, want one per tick, %d", h.Spec.ID, len(samples), warm+ticks)
		}
		for k, s := range samples {
			if want := sim.Epoch.Add(time.Duration(k+1) * c.Interval()); !s.At.Equal(want) {
				t.Fatalf("%s: sample %d at %v, want the tick instant %v", h.Spec.ID, k, s.At, want)
			}
		}
	}
}

// TestSleepingHostIsNeverDown: a failed host is awake until it recovers —
// FailHost syncs a sleeping market first, and the sweep skips a down host
// without letting it sleep — so a host AppendAwake leaves out is up, which is
// what lets a broker price the hosts it leaves out at their reserve.
func TestSleepingHostIsNeverDown(t *testing.T) {
	const hosts = 16
	w := newObservedCluster(t, hosts)
	ids := w.HostIDs()
	check := func(when string) {
		t.Helper()
		awake := map[int]bool{}
		for _, i := range w.AppendAwake(nil) {
			awake[i] = true
		}
		for i, id := range ids {
			h, _ := w.Host(id)
			if h.Down() && !awake[i] {
				t.Fatalf("%s: %s is down and asleep", when, id)
			}
		}
	}
	src := rand.New(rand.NewSource(5))
	w.eng.RunFor(3 * w.Interval())
	if n := len(w.AppendAwake(nil)); n != 0 {
		t.Fatalf("%d hosts awake after idle ticks, want every one asleep", n)
	}
	failures := 0
	for step := 0; step < 300; step++ {
		id := ids[src.Intn(hosts)]
		h, _ := w.Host(id)
		switch k := src.Intn(6); {
		case k == 0 && !h.Down():
			if _, err := w.FailHost(id); err != nil {
				t.Fatal(err)
			}
			failures++
		case k == 1 && h.Down():
			if err := w.RecoverHost(id); err != nil {
				t.Fatal(err)
			}
		case k == 2 && !h.Down():
			if _, err := w.PlaceBid(id, "b", bank.Credit, w.eng.Now().Add(time.Minute)); err != nil {
				t.Fatal(err)
			}
		default:
			w.eng.RunFor(time.Duration(1+src.Intn(8)) * w.Interval())
		}
		check(fmt.Sprintf("step %d", step))
	}
	if failures < 10 {
		t.Fatalf("%d failures: the schedule does not exercise churn", failures)
	}
}
