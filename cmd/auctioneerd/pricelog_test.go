package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tycoongrid/internal/auction"
	"tycoongrid/internal/auctioneerapi"
	"tycoongrid/internal/bank"
	"tycoongrid/internal/durable"
)

const testInterval = 10 * time.Second

var testStart = time.Date(2006, 6, 19, 0, 0, 0, 0, time.UTC)

// daemon is one auctioneerd's market, service and price log, as main wires
// them, on data directory dir.
type daemon struct {
	market *auction.Market
	svc    *auctioneerapi.Service
	prices *priceLog
}

func start(t *testing.T, dir string, at time.Time, snapshotEvery int) *daemon {
	t.Helper()
	m, err := auction.NewMarket(auction.Config{HostID: "h1", CapacityMHz: 5600, ReservePrice: 1.0 / 3600, Start: at})
	if err != nil {
		t.Fatal(err)
	}
	svc, prices, err := newService(m, testInterval, dir, "none", snapshotEvery)
	if err != nil {
		t.Fatal(err)
	}
	return &daemon{market: m, svc: svc, prices: prices}
}

// tick clears the market at tick i, a bid placed first on every seventh so
// the prices move. Each bid is gone within six ticks: a restart loses the
// book, which is not journaled.
func (d *daemon) tick(t *testing.T, i int) {
	t.Helper()
	at := testStart.Add(time.Duration(i) * testInterval)
	if i%7 == 0 {
		bidder := auction.BidderID(fmt.Sprintf("b%03d", i))
		if _, err := d.market.PlaceBid(bidder, bank.Amount(1+i%5)*bank.Credit, at.Add(time.Duration(3+i%4)*testInterval)); err != nil {
			t.Fatal(err)
		}
	}
	d.market.Tick(at)
}

func (d *daemon) stats(t *testing.T, window string) string {
	t.Helper()
	rec := httptest.NewRecorder()
	d.svc.ServeHTTP(rec, httptest.NewRequest("GET", "/stats/"+window, nil))
	if rec.Code != 200 {
		t.Fatalf("GET /stats/%s: %d %s", window, rec.Code, rec.Body)
	}
	return rec.Body.String()
}

// sameHistory fails unless the two daemons' rings hold the same samples,
// prices and instants both, and answer every /stats window alike.
func sameHistory(t *testing.T, got, want *daemon, n int) {
	t.Helper()
	g, w := got.prices.ring.Since(math.MinInt64), want.prices.ring.Since(math.MinInt64)
	if len(g) != n || len(w) != n {
		t.Fatalf("rings hold %d and %d samples, want %d", len(g), len(w), n)
	}
	for i := range w {
		if g[i].T != w[i].T || math.Float64bits(g[i].V) != math.Float64bits(w[i].V) {
			t.Fatalf("sample %d: %v at %v, want %v at %v", i, g[i].V, g[i].T, w[i].V, w[i].T)
		}
	}
	for _, window := range []string{"hour", "day", "week"} {
		if g, w := got.stats(t, window), want.stats(t, window); g != w {
			t.Errorf("/stats/%s after a restart:\n%s\nwant\n%s", window, g, w)
		}
	}
}

// TestRestartRecoversTheRing: an auctioneerd that journals more clears than
// one snapshot covers, closes its log and starts again on the same directory
// holds the same ring — prices and instants — and answers /stats exactly as a
// twin that never restarted, before and after further clears.
func TestRestartRecoversTheRing(t *testing.T) {
	const every, first, more = 7, 33, 12 // the bid of tick 28 expires at 31
	dir := t.TempDir()
	restarted, twin := start(t, dir, testStart, every), start(t, t.TempDir(), testStart, every)
	for i := 1; i <= first; i++ {
		restarted.tick(t, i)
		twin.tick(t, i)
	}
	if err := restarted.prices.close(); err != nil {
		t.Fatal(err)
	}

	restarted = start(t, dir, testStart.Add(first*testInterval), every)
	sameHistory(t, restarted, twin, first)
	if got := twin.stats(t, "hour"); !strings.Contains(got, fmt.Sprintf(`"count":%d`, first)) {
		t.Fatalf("twin /stats/hour = %s, want a count of %d", got, first)
	}
	for i := first + 1; i <= first+more; i++ {
		restarted.tick(t, i)
		twin.tick(t, i)
	}
	sameHistory(t, restarted, twin, first+more)
	for _, d := range []*daemon{restarted, twin} {
		if err := d.prices.close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestUntaggedSnapshotIsRefused: a data directory whose snapshot is in the
// earlier price-only format, which has no instants to put in a ring, is
// refused with an error that names -data-dir, not read as samples.
func TestUntaggedSnapshotIsRefused(t *testing.T) {
	dir := t.TempDir()
	st, err := durable.Open(dir, durable.Options{Sync: durable.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Recover(nil, nil); err != nil {
		t.Fatal(err)
	}
	var prices []byte
	for _, p := range []float64{1.0 / 3600, 0.002, 0.0015} {
		prices = binary.LittleEndian.AppendUint64(prices, math.Float64bits(p))
	}
	if err := st.Snapshot(prices); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	m, err := auction.NewMarket(auction.Config{HostID: "h1", CapacityMHz: 5600, Start: testStart})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = newService(m, testInterval, dir, "none", 0)
	if err == nil || !strings.Contains(err.Error(), "-data-dir") {
		t.Fatalf("newService on a price-only snapshot: %v, want an error naming -data-dir", err)
	}
}
