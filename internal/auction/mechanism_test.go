package auction

import (
	"fmt"
	"math"
	"testing"
	"time"

	"tycoongrid/internal/bank"
	"tycoongrid/internal/mechanism"
)

// newMarketWith builds a market running the named mechanism.
func newMarketWith(t *testing.T, name string, start time.Time) *Market {
	t.Helper()
	mech, err := mechanism.New(name, mechanism.Config{})
	if err != nil {
		t.Fatalf("mechanism %q: %v", name, err)
	}
	m, err := NewMarket(Config{
		HostID:       "host-0",
		CapacityMHz:  3000,
		ReservePrice: 0.001,
		Start:        start,
		Mechanism:    mech,
	})
	if err != nil {
		t.Fatalf("NewMarket: %v", err)
	}
	return m
}

// TestMarketMechanismLifecycle drives each mechanism through the full bid
// lifecycle and checks the money-side invariants the bank relies on: charges
// never exceed budgets, cancel/expiry refunds return exactly the unspent
// remainder, and the published price respects the reserve.
func TestMarketMechanismLifecycle(t *testing.T) {
	start := time.Unix(0, 0)
	for _, name := range mechanism.Names() {
		t.Run(name, func(t *testing.T) {
			m := newMarketWith(t, name, start)
			if got := m.MechanismName(); got != name {
				t.Fatalf("MechanismName = %q, want %q", got, name)
			}
			budgetA := bank.Amount(10_000_000) // 10 credits
			budgetB := bank.Amount(4_000_000)
			if _, err := m.PlaceBid("acct-a", budgetA, start.Add(100*time.Second)); err != nil {
				t.Fatal(err)
			}
			if _, err := m.PlaceBid("acct-b", budgetB, start.Add(50*time.Second)); err != nil {
				t.Fatal(err)
			}

			var paidA, paidB bank.Amount
			now := start
			for i := 0; i < 12; i++ {
				now = now.Add(10 * time.Second)
				charges, refunds := m.Tick(now)
				for _, c := range charges {
					switch c.Bidder {
					case "acct-a":
						paidA += c.Amount
					case "acct-b":
						paidB += c.Amount
					}
					if c.Amount <= 0 {
						t.Fatalf("non-positive charge %v", c.Amount)
					}
				}
				for _, r := range refunds {
					switch r.Bidder {
					case "acct-a":
						paidA += r.Amount
					case "acct-b":
						paidB += r.Amount
					}
				}
				if p := m.SpotPrice(); p < 0.001 {
					t.Fatalf("tick %d: price %v below reserve", i, p)
				}
				for _, s := range m.Shares() {
					if s.Fraction < 0 || s.Fraction > 1 {
						t.Fatalf("share fraction %v out of range", s.Fraction)
					}
				}
			}
			// Both deadlines passed: every micro-credit is accounted for as
			// either a charge or a refund, never more than the budget.
			if m.Bidders() != 0 {
				t.Fatalf("expected all bids expired, %d live", m.Bidders())
			}
			if paidA != budgetA {
				t.Fatalf("acct-a charges+refunds %v != budget %v", paidA, budgetA)
			}
			if paidB != budgetB {
				t.Fatalf("acct-b charges+refunds %v != budget %v", paidB, budgetB)
			}
		})
	}
}

// TestMarketPostedPriceFreeRider checks the posted-price-specific behavior
// surfaced through the market: a bid too small to be admitted after larger
// bids fill the host holds its reservation without being charged.
func TestMarketPostedPriceFreeRider(t *testing.T) {
	start := time.Unix(0, 0)
	m := newMarketWith(t, mechanism.PostedPrice, start)
	// big demands 10 credits/100s = 0.1 cr/s; the posted price seeds at the
	// reserve 0.001, so big alone over-fills the host and tiny is never
	// admitted.
	if _, err := m.PlaceBid("big", bank.Amount(10_000_000), start.Add(100*time.Second)); err != nil {
		t.Fatal(err)
	}
	m.Tick(start.Add(10 * time.Second)) // price the book
	if _, err := m.PlaceBid("tiny", bank.Amount(1_000), start.Add(100*time.Second)); err != nil {
		t.Fatal(err)
	}
	m.Tick(start.Add(20 * time.Second))
	charges, _ := m.Tick(start.Add(30 * time.Second))
	for _, c := range charges {
		if c.Bidder == "tiny" {
			t.Fatalf("non-admitted bidder was charged %v", c.Amount)
		}
	}
	shares := m.Shares()
	var bigFrac float64
	for _, s := range shares {
		if s.Bidder == "big" {
			bigFrac = s.Fraction
		}
	}
	if bigFrac != 1 {
		t.Fatalf("big bidder share = %v, want the whole host", bigFrac)
	}
}

// TestQuoteShare: QuoteShare answers what a bid would win without changing
// anything. Under proportional share its answer is Rate/(Rate+PriceExcluding),
// the quote Best Response solves with; a bidder already on the book is quoted
// at the new rate in place of its own bid; and a market that was quoted ticks
// on exactly like a twin that never was, posted-price's state included.
func TestQuoteShare(t *testing.T) {
	start := time.Unix(0, 0)
	for _, name := range mechanism.Names() {
		t.Run(name, func(t *testing.T) {
			m, twin := newMarketWith(t, name, start), newMarketWith(t, name, start)
			for _, mk := range []*Market{m, twin} {
				if _, err := mk.PlaceBid("acct-a", 10*bank.Credit, start.Add(100*time.Second)); err != nil {
					t.Fatal(err)
				}
				if _, err := mk.PlaceBid("acct-c", 4*bank.Credit, start.Add(100*time.Second)); err != nil {
					t.Fatal(err)
				}
				mk.Tick(start.Add(10 * time.Second))
			}
			before := m.Shares()
			got := m.QuoteShare("acct-b", 0.05)
			if name == mechanism.Proportional {
				if want := 0.05 / (0.05 + m.PriceExcluding("acct-b")); math.Abs(got-want) > 1e-12 {
					t.Errorf("proportional quote %v, want Rate/(Rate+Price) = %v", got, want)
				}
			}
			if got < 0 || got > 1 {
				t.Errorf("quoted share %v outside [0, 1]", got)
			}
			rate, err := m.Rate("acct-a")
			if err != nil {
				t.Fatal(err)
			}
			if own := m.QuoteShare("acct-a", rate); own != before[0].Fraction {
				t.Errorf("acct-a quoted at its own rate wins %v, its share is %v", own, before[0].Fraction)
			}
			if after := m.Shares(); fmt.Sprint(after) != fmt.Sprint(before) {
				t.Errorf("quoting changed the shares: %v, was %v", after, before)
			}
			for i := 2; i <= 4; i++ {
				at := start.Add(time.Duration(i) * 10 * time.Second)
				m.Tick(at)
				twin.Tick(at)
				if m.SpotPrice() != twin.SpotPrice() || fmt.Sprint(m.Shares()) != fmt.Sprint(twin.Shares()) {
					t.Fatalf("tick %d: quoted market at %v %v, twin at %v %v",
						i, m.SpotPrice(), m.Shares(), twin.SpotPrice(), twin.Shares())
				}
			}
		})
	}
}
