package auctioneerapi

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tycoongrid/internal/auction"
	"tycoongrid/internal/bank"
)

// services spins up one auctioneer on an httptest server.
type services struct {
	market *auction.Market
	auctC  *Client
}

func startServices(t *testing.T) *services {
	t.Helper()
	market, err := auction.NewMarket(auction.Config{
		HostID: "h1", CapacityMHz: 2800, Start: time.Now(),
	})
	if err != nil {
		t.Fatal(err)
	}
	auctSvc, err := NewService(market, map[string]int{"hour": 360})
	if err != nil {
		t.Fatal(err)
	}
	auctSrv := httptest.NewServer(auctSvc)
	t.Cleanup(auctSrv.Close)
	return &services{market: market, auctC: NewClient(auctSrv.URL, nil)}
}

func TestAuctioneerServiceOverHTTP(t *testing.T) {
	s := startServices(t)
	st, err := s.auctC.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.HostID != "h1" || st.CapacityMHz != 2800 || st.Bidders != 0 {
		t.Errorf("status = %+v", st)
	}
	deadline := time.Now().Add(time.Hour)
	if _, err := s.auctC.PlaceBid("alice", 36*bank.Credit, deadline); err != nil {
		t.Fatal(err)
	}
	if _, err := s.auctC.PlaceBid("bob", 36*bank.Credit, deadline); err != nil {
		t.Fatal(err)
	}
	// Tick the market manually (the daemon would do this on a timer).
	s.market.Tick(time.Now())
	shares, err := s.auctC.Shares()
	if err != nil || len(shares) != 2 {
		t.Fatalf("shares = %+v, %v", shares, err)
	}
	if shares[0].Fraction != 0.5 {
		t.Errorf("share = %+v", shares[0])
	}
	if err := s.auctC.Boost("alice", 36*bank.Credit); err != nil {
		t.Fatal(err)
	}
	if err := s.auctC.Boost("ghost", bank.Credit); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("ghost boost: %v", err)
	}
	refund, err := s.auctC.CancelBid("bob")
	if err != nil {
		t.Fatal(err)
	}
	// The wall-clock tick charged a few milliseconds of spend; the refund is
	// the budget minus that sliver.
	if refund <= 35*bank.Credit || refund > 36*bank.Credit {
		t.Errorf("refund = %v", refund)
	}
	// Replacing a bid reports the old (boosted) budget as refund.
	r2, err := s.auctC.PlaceBid("alice", bank.Credit, deadline)
	if err != nil {
		t.Fatal(err)
	}
	if r2 <= 71*bank.Credit || r2 > 72*bank.Credit {
		t.Errorf("replace refund = %v", r2)
	}
	// Bad requests are 400s.
	if _, err := s.auctC.PlaceBid("", bank.Credit, deadline); err == nil {
		t.Error("empty bidder accepted")
	}
}

func TestAuctioneerWindowStatsOverHTTP(t *testing.T) {
	s := startServices(t)
	deadline := time.Now().Add(time.Hour)
	if _, err := s.auctC.PlaceBid("alice", 36*bank.Credit, deadline); err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	for i := 0; i < 5; i++ {
		now = now.Add(10 * time.Second)
		s.market.Tick(now)
	}
	ws, err := s.auctC.WindowStats("hour")
	if err != nil {
		t.Fatal(err)
	}
	if ws.Count != 5 || ws.Mean <= 0 {
		t.Errorf("window stats = %+v", ws)
	}
	var sum float64
	for _, b := range ws.Buckets {
		sum += b.Proportion
	}
	if sum < 0.99 || sum > 1.01 {
		t.Errorf("bucket proportions sum to %v", sum)
	}
	if _, err := s.auctC.WindowStats("nope"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("unknown window: %v", err)
	}
}

// TestClientsEscapeIDs: the typed client puts a caller's id into a URL path
// segment escaped, so an id holding URL syntax reaches the service whole.
// Unescaped, "alice?x" is cut at the '?' and names alice, "#" starts a
// fragment, "%41" decodes to "A", "&site=b" adds a query parameter and "/"
// splits a path segment. Each case places the id's decoy — what the
// unescaped URL would name — beside it, and checks that every call reached
// the id's own record and left the decoy's alone.
func TestClientsEscapeIDs(t *testing.T) {
	cases := []struct{ name, id, decoy string }{
		{"question", "alice?x", "alice"},
		{"hash", "frag#1", "frag"},
		{"percent", "pct%41", "pctA"},
		{"ampersand", "a&site=b", "a"},
		{"slash", "broker/p0-0001", "broker"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := startServices(t)
			id, decoy := tc.id, tc.decoy

			// CancelBid refunds the id's own bid and only it.
			deadline := time.Now().Add(time.Hour)
			if _, err := s.auctC.PlaceBid(decoy, 5*bank.Credit, deadline); err != nil {
				t.Fatal(err)
			}
			if _, err := s.auctC.PlaceBid(id, 7*bank.Credit, deadline); err != nil {
				t.Fatal(err)
			}
			if refund, err := s.auctC.CancelBid(id); err != nil || refund != 7*bank.Credit {
				t.Errorf("CancelBid(%q) = %v, %v; want its own 7 credits back", id, refund, err)
			}
			if refund, err := s.market.CancelBid(auction.BidderID(decoy)); err != nil || refund != 5*bank.Credit {
				t.Errorf("%q's bid after cancelling %q: refund %v, %v; want it untouched at 5", decoy, id, refund, err)
			}

			// WindowStats of a window named like the id.
			svc, err := NewService(s.market, map[string]int{decoy: 4, id: 8})
			if err != nil {
				t.Fatal(err)
			}
			srv := httptest.NewServer(svc)
			t.Cleanup(srv.Close)
			if ws, err := NewClient(srv.URL, nil).WindowStats(id); err != nil || ws.Window != id {
				t.Errorf("WindowStats(%q) = window %q, %v", id, ws.Window, err)
			}
		})
	}
}
