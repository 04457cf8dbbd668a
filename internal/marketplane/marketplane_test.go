package marketplane

import (
	"fmt"
	"slices"
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
			// The result slice is the plane's and is rewritten by the next tick.
			ticks = append(ticks, slices.Clone(p.TickAll(now, nil)))
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
