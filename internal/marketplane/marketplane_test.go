package marketplane

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tycoongrid/internal/auction"
	"tycoongrid/internal/bank"
	"tycoongrid/internal/mechanism"
	"tycoongrid/internal/sim"
)

func testMarkets(t *testing.T, n int) []HostMarket {
	return testMechanismMarkets(t, n, mechanism.Proportional)
}

func testMechanismMarkets(t *testing.T, n int, mechName string) []HostMarket {
	t.Helper()
	out := make([]HostMarket, n)
	for i := range out {
		mech, err := mechanism.New(mechName, mechanism.Config{})
		if err != nil {
			t.Fatal(err)
		}
		m, err := auction.NewMarket(auction.Config{
			HostID:      fmt.Sprintf("h%03d", i),
			CapacityMHz: 1000,
			Start:       sim.Epoch,
			Mechanism:   mech,
		})
		if err != nil {
			t.Fatal(err)
		}
		out[i] = m
	}
	return out
}

func TestPlaneCanonicalOrder(t *testing.T) {
	markets := testMarkets(t, 20)
	p, err := New(Config{Shards: 3, Markets: markets})
	if err != nil {
		t.Fatal(err)
	}
	results := p.TickAll(sim.Epoch.Add(auction.DefaultInterval), nil)
	if len(results) != 20 {
		t.Fatalf("%d results", len(results))
	}
	for i, r := range results {
		if want := fmt.Sprintf("h%03d", i); r.Host != want {
			t.Fatalf("result %d is %q, want %q — canonical order broken", i, r.Host, want)
		}
		if got := p.PriceAt(i); got != markets[i].SpotPrice() {
			t.Fatalf("cached price for %s = %v, want %v", r.Host, got, markets[i].SpotPrice())
		}
	}
}

// A skipped host is neither cleared nor handed its queued bids, whether the
// sweep is TickAll (canonical indices) or TickShard (host ids); every other
// host clears, and TickShard returns exactly its shard's hosts in canonical
// order.
func TestPlaneSkipPredicate(t *testing.T) {
	markets := testMarkets(t, 6)
	p, err := New(Config{Shards: 2, Markets: markets})
	if err != nil {
		t.Fatal(err)
	}
	deadline := sim.Epoch.Add(time.Hour)
	for i := range markets {
		p.EnqueueBidAt(i, "b", bank.Credit, deadline)
	}
	now := sim.Epoch.Add(auction.DefaultInterval)
	p.TickAll(now, func(i int) bool { return i == 2 }) // applies the bids
	now = now.Add(auction.DefaultInterval)
	for i, r := range p.TickAll(now, func(i int) bool { return i == 2 }) {
		if want := fmt.Sprintf("h%03d", i); r.Host != want {
			t.Fatalf("result %d is %q, want %q", i, r.Host, want)
		}
		if skipped := i == 2; skipped != (len(r.Charges) == 0) {
			t.Errorf("%s: %d charges, skipped=%v", r.Host, len(r.Charges), skipped)
		}
	}
	if markets[2].(*auction.Market).Bidders() != 0 {
		t.Error("a skipped host was handed its queued bid")
	}

	now = now.Add(auction.DefaultInterval)
	seen := 0
	for sh := 0; sh < 2; sh++ {
		prev := ""
		for _, r := range p.TickShard(sh, now, func(h string) bool { return h == "h004" }) {
			if owner, ok := p.ShardIndexOf(r.Host); !ok || owner != sh {
				t.Errorf("TickShard(%d) returned %s, owned by shard %d", sh, r.Host, owner)
			}
			if r.Host <= prev {
				t.Errorf("TickShard(%d): %s after %s — canonical order broken", sh, r.Host, prev)
			}
			prev = r.Host
			if skipped := r.Host == "h002" || r.Host == "h004"; skipped != (len(r.Charges) == 0) {
				t.Errorf("TickShard: %s has %d charges, skipped=%v", r.Host, len(r.Charges), skipped)
			}
			seen++
		}
	}
	if seen != len(markets) {
		t.Errorf("the shards returned %d hosts between them, want %d", seen, len(markets))
	}
}

// The determinism contract: the same bid stream driven through planes at
// different shard counts over identical market sets yields identical charges,
// refunds and spot prices, tick for tick and host for host, under every
// registered clearing mechanism. Sharding changes who clears a host, never
// what the clear computes.
func TestShardCountInvariance(t *testing.T) {
	for _, mechName := range mechanism.Names() {
		t.Run(mechName, func(t *testing.T) { testShardCountInvariance(t, mechName) })
	}
}

func testShardCountInvariance(t *testing.T, mechName string) {
	const hosts = 16
	run := func(shards int) ([][]TickResult, []float64) {
		markets := testMechanismMarkets(t, hosts, mechName)
		p, err := New(Config{Shards: shards, Markets: markets})
		if err != nil {
			t.Fatal(err)
		}
		var ticks [][]TickResult
		for tk := 0; tk < 8; tk++ {
			// Deterministic bid pattern: several bidders per tick, spread
			// across hosts, short deadlines so refunds fire mid-run.
			for j := 0; j < 12; j++ {
				host := (tk*5 + j*3) % hosts
				bidder := auction.BidderID(fmt.Sprintf("b-%02d-%02d", tk, j))
				deadline := sim.Epoch.Add(time.Duration(tk+2) * auction.DefaultInterval)
				p.EnqueueBidAt(host, bidder, 3*bank.Credit, deadline)
			}
			now := sim.Epoch.Add(time.Duration(tk+1) * auction.DefaultInterval)
			// The result slice is the plane's and is rewritten by the next
			// tick, and each result's charges and refunds are its market's,
			// rewritten by that market's next Tick.
			tick := slices.Clone(p.TickAll(now, nil))
			for i := range tick {
				tick[i].Charges, tick[i].Refunds = slices.Clone(tick[i].Charges), slices.Clone(tick[i].Refunds)
			}
			ticks = append(ticks, tick)
		}
		prices := make([]float64, hosts)
		for i := range prices {
			prices[i] = p.PriceAt(i)
		}
		return ticks, prices
	}

	baseTicks, basePrices := run(1)
	for _, shards := range []int{2, 4, 7} {
		gotTicks, gotPrices := run(shards)
		for tk := range baseTicks {
			for h := range baseTicks[tk] {
				a, b := baseTicks[tk][h], gotTicks[tk][h]
				if a.Host != b.Host {
					t.Fatalf("shards=%d tick %d host %d: %q vs %q", shards, tk, h, a.Host, b.Host)
				}
				if len(a.Charges) != len(b.Charges) || len(a.Refunds) != len(b.Refunds) {
					t.Fatalf("shards=%d tick %d %s: %d/%d charges, %d/%d refunds",
						shards, tk, a.Host, len(a.Charges), len(b.Charges), len(a.Refunds), len(b.Refunds))
				}
				for i := range a.Charges {
					if a.Charges[i] != b.Charges[i] {
						t.Fatalf("shards=%d tick %d %s charge %d: %+v vs %+v",
							shards, tk, a.Host, i, a.Charges[i], b.Charges[i])
					}
				}
				for i := range a.Refunds {
					if a.Refunds[i] != b.Refunds[i] {
						t.Fatalf("shards=%d tick %d %s refund %d: %+v vs %+v",
							shards, tk, a.Host, i, a.Refunds[i], b.Refunds[i])
					}
				}
			}
		}
		for i := range basePrices {
			if basePrices[i] != gotPrices[i] {
				t.Fatalf("shards=%d host %d price %v vs %v", shards, i, basePrices[i], gotPrices[i])
			}
		}
	}
}

// TestFanOut: every index runs exactly once and fanOut returns only after
// all of them; n <= 0 runs nothing; n == 1 runs inline, so a panic in fn
// reaches the caller's recover instead of killing the process.
func TestFanOut(t *testing.T) {
	t.Run("none", func(t *testing.T) {
		for _, n := range []int{0, -3} {
			fanOut(n, func(i int) { t.Errorf("n=%d ran index %d", n, i) })
		}
	})
	t.Run("inline", func(t *testing.T) {
		defer func() {
			if r := recover(); r != "index 0" {
				t.Errorf("recovered %v, want the panic of fn(0)", r)
			}
		}()
		fanOut(1, func(i int) { panic("index 0") })
		t.Error("fn(0) did not run")
	})
	t.Run("parallel", func(t *testing.T) {
		const n = 8
		var ran [n]atomic.Int32
		fanOut(n, func(i int) { ran[i].Add(1) })
		for i := range ran {
			if got := ran[i].Load(); got != 1 {
				t.Errorf("index %d ran %d times", i, got)
			}
		}
	})
}

// TestEnqueueDrainAllocatesNothing: once its queue has grown to a round's
// bids, a shard reuses the arrays it drains, and TickShard its results, so a
// round of re-bids through EnqueueBidAt and the clear that applies them
// allocates nothing. Every bidder bids again on the market it already holds a
// bid in, so the books keep their size. It read 14 allocations a round while
// each drain dropped the queue and each TickShard made its slice.
func TestEnqueueDrainAllocatesNothing(t *testing.T) {
	const hosts, bids = 64, 2000
	p, err := New(Config{Shards: 1, Markets: testMarkets(t, hosts)})
	if err != nil {
		t.Fatal(err)
	}
	bidders := make([]auction.BidderID, bids)
	for j := range bidders {
		bidders[j] = auction.BidderID(fmt.Sprintf("b-%04d", j))
	}
	now := sim.Epoch
	deadline := sim.Epoch.Add(24 * time.Hour)
	round := func() {
		for j, b := range bidders {
			p.EnqueueBidAt(j%hosts, b, bank.Credit, deadline)
		}
		now = now.Add(auction.DefaultInterval)
		p.TickShard(0, now, nil)
	}
	for range 4 { // the queue's two arrays, the books, the markets' buffers
		round()
	}
	if allocs := testing.AllocsPerRun(20, round); allocs != 0 {
		t.Errorf("a round of %d re-bids and its clear allocates %.1f times, want 0", bids, allocs)
	}
}

// TestTickShardResetsReusedResults: TickShard's slice is rewritten by every
// call, so a host that cleared with charges at one tick and is asleep at the
// next carries no charges in the next result, though its market still holds
// the buffer those charges were in. A skipped host's entry is reset too.
func TestTickShardResetsReusedResults(t *testing.T) {
	markets := testMarkets(t, 4)
	p, err := New(Config{Shards: 1, Markets: markets})
	if err != nil {
		t.Fatal(err)
	}
	now := sim.Epoch.Add(auction.DefaultInterval)
	// Host 0's bid spends its budget over the first two clears, which leaves
	// its book empty, so it falls asleep. Host 1's bid outlives the test.
	p.EnqueueBidAt(0, "short", bank.Credit, now.Add(auction.DefaultInterval))
	p.EnqueueBidAt(1, "long", bank.Credit, now.Add(time.Hour))
	p.TickShard(0, now, nil)
	now = now.Add(auction.DefaultInterval)
	res := p.TickShard(0, now, nil)
	if len(res[0].Charges) == 0 || len(res[1].Charges) == 0 {
		t.Fatalf("the second clear: %+v, want charges on h000 and h001", res)
	}
	now = now.Add(auction.DefaultInterval)
	res = p.TickShard(0, now, func(host string) bool { return host == "h001" })
	if awake := p.AppendAwake(nil); slices.Contains(awake, 0) {
		t.Fatalf("h000 is awake after its last bid expired: %v", awake)
	}
	for _, r := range res {
		if len(r.Charges) != 0 || len(r.Refunds) != 0 {
			t.Errorf("third tick: %s carries %v charges and %v refunds, want none (h000 asleep, h001 skipped)", r.Host, r.Charges, r.Refunds)
		}
	}
}

// TestEnqueueDuringTickShard: bids enqueued from two goroutines while
// TickShard drains and clears are each entered exactly once, at this sweep or
// the next, whichever side of the drain they landed on. Run under -race.
func TestEnqueueDuringTickShard(t *testing.T) {
	const hosts, perWriter, writers = 8, 2000, 2
	markets := testMarkets(t, hosts)
	p, err := New(Config{Shards: 1, Markets: markets})
	if err != nil {
		t.Fatal(err)
	}
	deadline := sim.Epoch.Add(10 * 365 * 24 * time.Hour) // outlives any number of sweeps the writers take
	var wg sync.WaitGroup
	wg.Add(writers)
	for w := range writers {
		go func() {
			defer wg.Done()
			for j := range perWriter {
				p.EnqueueBidAt(j%hosts, auction.BidderID(fmt.Sprintf("w%d-%04d", w, j)), bank.Credit, deadline)
				if j%64 == 0 {
					runtime.Gosched() // let the sweeps drain between enqueues
				}
			}
		}()
	}
	now := sim.Epoch
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		now = now.Add(auction.DefaultInterval)
		p.TickShard(0, now, nil)
	}
	p.TickShard(0, now.Add(auction.DefaultInterval), nil) // what landed after the last drain
	placed := 0
	for _, m := range markets {
		placed += m.(*auction.Market).Bidders()
	}
	if placed != writers*perWriter {
		t.Errorf("the markets hold %d bids, want %d", placed, writers*perWriter)
	}
}
