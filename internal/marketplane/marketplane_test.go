package marketplane

import (
	"errors"
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

// New refuses a plane it cannot build: no markets, a nil market, or two
// markets of one host, wherever in the list the second one stands.
func TestNewRefusesABadConfig(t *testing.T) {
	markets := testMarkets(t, 4)
	dup, err := auction.NewMarket(auction.Config{HostID: "h001", CapacityMHz: 1000, Start: sim.Epoch})
	if err != nil {
		t.Fatal(err)
	}
	for name, ms := range map[string][]HostMarket{
		"no markets":     nil,
		"nil market":     {markets[0], nil},
		"duplicate host": append(slices.Clone(markets), dup),
	} {
		for _, shards := range []int{1, 3} {
			if p, err := New(Config{Shards: shards, Markets: ms}); !errors.Is(err, ErrBadPlaneConfig) {
				t.Errorf("%s at %d shards: New = %v, %v, want ErrBadPlaneConfig", name, shards, p, err)
			}
		}
	}
	if _, err := New(Config{Shards: 3, Markets: markets}); err != nil {
		t.Errorf("distinct hosts refused: %v", err)
	}
}

// TickAll returns a result for each host whose clear charged or refunded
// someone, in canonical host order whichever shard cleared it, and none for
// a clear that moved no money.
func TestPlaneCanonicalOrder(t *testing.T) {
	markets := testMarkets(t, 20)
	p, err := New(Config{Shards: 3, Markets: markets})
	if err != nil {
		t.Fatal(err)
	}
	now := sim.Epoch.Add(auction.DefaultInterval)
	if results := p.TickAll(now, nil); len(results) != 0 {
		t.Fatalf("a sweep of 20 empty books returned %d results, want 0", len(results))
	}
	var want []string
	for i, m := range markets {
		if i%3 == 1 {
			continue // stays idle
		}
		if _, err := m.PlaceBid("b", bank.Credit, now.Add(time.Hour)); err != nil {
			t.Fatal(err)
		}
		want = append(want, fmt.Sprintf("h%03d", i))
	}
	now = now.Add(auction.DefaultInterval)
	var got []string
	for _, r := range p.TickAll(now, nil) {
		if len(r.Charges) != 1 {
			t.Errorf("%s: %d charges, want 1", r.Host, len(r.Charges))
		}
		if r.Host != fmt.Sprintf("h%03d", r.Index) {
			t.Errorf("%s's result carries index %d", r.Host, r.Index)
		}
		got = append(got, r.Host)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("TickAll returned %v, want the charged hosts in canonical order %v", got, want)
	}
	for i := range markets {
		if got := p.PriceAt(i); got != markets[i].SpotPrice() {
			t.Fatalf("cached price for h%03d = %v, want %v", i, got, markets[i].SpotPrice())
		}
	}
}

// A skipped host is not cleared, whether the sweep is TickAll (canonical
// indices) or TickShard (host ids), nor handed its queued bids by TickShard;
// every other host clears, and TickShard returns exactly its shard's hosts in
// canonical order.
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
	for sh := 0; sh < 2; sh++ {
		p.TickShard(sh, now, func(h string) bool { return h == "h002" }) // applies the bids
	}
	now = now.Add(auction.DefaultInterval)
	var swept []string
	for _, r := range p.TickAll(now, func(i int) bool { return i == 2 }) {
		if len(r.Charges) == 0 {
			t.Errorf("%s: a result with no charges", r.Host)
		}
		swept = append(swept, r.Host)
	}
	if want := []string{"h000", "h001", "h003", "h004", "h005"}; !slices.Equal(swept, want) {
		t.Fatalf("TickAll returned %v, want %v: every host but the skipped one charged", swept, want)
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
				if _, err := markets[host].PlaceBid(bidder, 3*bank.Credit, deadline); err != nil {
					t.Fatal(err)
				}
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

// observeCounter is a stub market that counts its Observe calls and keeps
// the observers it is handed.
type observeCounter struct {
	id        string
	price     float64
	mu        sync.Mutex
	observers []func(price float64, at time.Time)
}

func (m *observeCounter) HostID() string                                     { return m.id }
func (m *observeCounter) Tick(time.Time) (charges, refunds []auction.Charge) { return nil, nil }
func (m *observeCounter) SpotPrice() float64                                 { return m.price }
func (m *observeCounter) Sleep(auction.Waker) bool                           { return false }
func (m *observeCounter) PlaceBid(auction.BidderID, bank.Amount, time.Time) (bank.Amount, error) {
	return 0, nil
}

func (m *observeCounter) Observe(fn func(price float64, at time.Time)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.observers = append(m.observers, fn)
}

func (m *observeCounter) observes() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.observers)
}

// TestPriceCacheIsHungByItsReader: a plane puts no observer on its markets,
// and a tick hangs none; the first PriceAt, called from two goroutines at
// once, hangs exactly one per market and seeds every entry with its market's
// SpotPrice; later calls hang none; and the observer it hung refreshes the
// entry. So a world, which never reads the cache, carries none of it.
func TestPriceCacheIsHungByItsReader(t *testing.T) {
	const hosts = 40
	stubs := make([]*observeCounter, hosts)
	markets := make([]HostMarket, hosts)
	for i := range stubs {
		stubs[i] = &observeCounter{id: fmt.Sprintf("h%03d", i), price: 1 + float64(i)/8}
		markets[i] = stubs[i]
	}
	p, err := New(Config{Shards: 3, Markets: markets})
	if err != nil {
		t.Fatal(err)
	}
	total := func() (n int) {
		for _, m := range stubs {
			n += m.observes()
		}
		return n
	}
	if n := total(); n != 0 {
		t.Fatalf("New made %d Observe calls, want 0", n)
	}
	p.TickAll(sim.Epoch.Add(auction.DefaultInterval), nil)
	if n := total(); n != 0 {
		t.Fatalf("New and a tick made %d Observe calls, want 0", n)
	}

	var wg sync.WaitGroup
	var read [2][hosts]float64
	for r := range read {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range hosts {
				read[r][i] = p.PriceAt(i)
			}
		}()
	}
	wg.Wait()
	for i, m := range stubs {
		if n := m.observes(); n != 1 {
			t.Errorf("%s: the first PriceAt made %d Observe calls, want 1", m.id, n)
		}
		for r := range read {
			if read[r][i] != m.SpotPrice() {
				t.Errorf("%s: reader %d got %v, SpotPrice is %v", m.id, r, read[r][i], m.SpotPrice())
			}
		}
	}
	for i := range hosts {
		p.PriceAt(i)
	}
	if n := total(); n != hosts {
		t.Errorf("%d Observe calls after later PriceAt calls, want %d", n, hosts)
	}
	stubs[7].observers[0](42, sim.Epoch)
	if got := p.PriceAt(7); got != 42 {
		t.Errorf("after a clear published 42, the cache holds %v", got)
	}
}
