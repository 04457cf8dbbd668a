package auction

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"tycoongrid/internal/bank"
	"tycoongrid/internal/mathx"
	"tycoongrid/internal/mechanism"
	"tycoongrid/internal/rng"
	"tycoongrid/internal/sim"
)

func newMarket(t *testing.T) (*Market, time.Time) {
	t.Helper()
	start := sim.Epoch
	m, err := NewMarket(Config{HostID: "h1", CapacityMHz: 2800, Start: start})
	if err != nil {
		t.Fatal(err)
	}
	return m, start
}

func TestNewMarketValidation(t *testing.T) {
	if _, err := NewMarket(Config{HostID: "", CapacityMHz: 100}); err == nil {
		t.Error("empty host accepted")
	}
	if _, err := NewMarket(Config{HostID: "h", CapacityMHz: 0}); err == nil {
		t.Error("zero capacity accepted")
	}
}

func TestPlaceBidValidation(t *testing.T) {
	m, start := newMarket(t)
	if _, err := m.PlaceBid("", bank.Credit, start.Add(time.Hour)); !errors.Is(err, ErrBadBid) {
		t.Errorf("empty bidder: %v", err)
	}
	if _, err := m.PlaceBid("u1", 0, start.Add(time.Hour)); !errors.Is(err, ErrBadBid) {
		t.Errorf("zero budget: %v", err)
	}
	if _, err := m.PlaceBid("u1", bank.Credit, start); !errors.Is(err, ErrBadBid) {
		t.Errorf("past deadline: %v", err)
	}
}

func TestProportionalShares(t *testing.T) {
	m, start := newMarket(t)
	deadline := start.Add(time.Hour)
	// u1 bids 30 credits, u2 bids 10 credits over the same hour: 3x the rate.
	if _, err := m.PlaceBid("u1", 30*bank.Credit, deadline); err != nil {
		t.Fatal(err)
	}
	if _, err := m.PlaceBid("u2", 10*bank.Credit, deadline); err != nil {
		t.Fatal(err)
	}
	m.Tick(start.Add(10 * time.Second))
	shares := m.Shares()
	if len(shares) != 2 {
		t.Fatalf("shares = %d", len(shares))
	}
	if !mathx.AlmostEqual(shares[0].Fraction, 0.75, 1e-9) {
		t.Errorf("u1 share = %v, want 0.75", shares[0].Fraction)
	}
	if !mathx.AlmostEqual(shares[1].Fraction, 0.25, 1e-9) {
		t.Errorf("u2 share = %v, want 0.25", shares[1].Fraction)
	}
	// Spot price = total rate = 40 credits/hour.
	wantPrice := 40.0 / 3600
	if !mathx.AlmostEqual(m.SpotPrice(), wantPrice, 1e-9) {
		t.Errorf("price = %v, want %v", m.SpotPrice(), wantPrice)
	}
	if !mathx.AlmostEqual(m.PricePerMHz(), wantPrice/2800, 1e-12) {
		t.Errorf("price/MHz = %v", m.PricePerMHz())
	}
}

func TestChargesProportionalToTime(t *testing.T) {
	m, start := newMarket(t)
	deadline := start.Add(time.Hour)
	if _, err := m.PlaceBid("u1", 36*bank.Credit, deadline); err != nil {
		t.Fatal(err)
	}
	// Rate = 36 credits/hour = 0.01 credits/s. After 10 s: 0.1 credits.
	charges, refunds := m.Tick(start.Add(10 * time.Second))
	if len(refunds) != 0 {
		t.Errorf("refunds = %v", refunds)
	}
	if len(charges) != 1 || charges[0].Bidder != "u1" {
		t.Fatalf("charges = %v", charges)
	}
	if charges[0].Amount != bank.MustCredits(0.1) {
		t.Errorf("charge = %v, want 0.1", charges[0].Amount)
	}
	rem, _ := m.Remaining("u1")
	if rem != bank.MustCredits(35.9) {
		t.Errorf("remaining = %v", rem)
	}
}

func TestInactiveBidderNotCharged(t *testing.T) {
	m, start := newMarket(t)
	deadline := start.Add(time.Hour)
	if _, err := m.PlaceBid("idle", 10*bank.Credit, deadline); err != nil {
		t.Fatal(err)
	}
	if err := m.SetActive("idle", false); err != nil {
		t.Fatal(err)
	}
	charges, _ := m.Tick(start.Add(time.Minute))
	if len(charges) != 0 {
		t.Errorf("idle bidder charged: %v", charges)
	}
	// Its bid still holds a share (reserved but unused).
	if got := m.Shares()[0].Fraction; got != 1 {
		t.Errorf("idle share = %v", got)
	}
	if err := m.SetActive("ghost", true); !errors.Is(err, ErrUnknownBidder) {
		t.Errorf("ghost SetActive: %v", err)
	}
}

func TestDeadlineRefund(t *testing.T) {
	m, start := newMarket(t)
	if _, err := m.PlaceBid("u1", 10*bank.Credit, start.Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	// Run half the horizon, then mark inactive so money stops draining.
	m.Tick(start.Add(30 * time.Second))
	if err := m.SetActive("u1", false); err != nil {
		t.Fatal(err)
	}
	_, refunds := m.Tick(start.Add(2 * time.Minute))
	if len(refunds) != 1 || refunds[0].Bidder != "u1" {
		t.Fatalf("refunds = %v", refunds)
	}
	if refunds[0].Amount != 5*bank.Credit {
		t.Errorf("refund = %v, want 5", refunds[0].Amount)
	}
	if m.Bidders() != 0 {
		t.Error("expired bid not removed")
	}
}

func TestBudgetExhaustionRemovesBid(t *testing.T) {
	m, start := newMarket(t)
	if _, err := m.PlaceBid("u1", bank.Credit, start.Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	charges, refunds := m.Tick(start.Add(time.Minute))
	var total bank.Amount
	for _, c := range charges {
		total += c.Amount
	}
	for _, r := range refunds {
		total += r.Amount
	}
	if total != bank.Credit {
		t.Errorf("charges+refunds = %v, want the full budget", total)
	}
	if m.Bidders() != 0 {
		t.Error("exhausted bid lingers")
	}
}

func TestChargeNeverExceedsBudget(t *testing.T) {
	f := func(budgetCredits, hours uint8, steps uint8) bool {
		budget := bank.Amount(int64(budgetCredits%50)+1) * bank.Credit
		horizon := time.Duration(int(hours%10)+1) * time.Hour
		m, err := NewMarket(Config{HostID: "h", CapacityMHz: 1000, Start: sim.Epoch})
		if err != nil {
			return false
		}
		if _, err := m.PlaceBid("u", budget, sim.Epoch.Add(horizon)); err != nil {
			return false
		}
		var paid bank.Amount
		now := sim.Epoch
		for i := 0; i < int(steps%40)+2; i++ {
			now = now.Add(7 * time.Minute)
			charges, refunds := m.Tick(now)
			for _, c := range charges {
				paid += c.Amount
			}
			for _, r := range refunds {
				paid += r.Amount
			}
		}
		if rem, err := m.Remaining("u"); err == nil {
			paid += rem
		}
		return paid == budget // conservation: charged + refunded + remaining = budget
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBoostRaisesShare(t *testing.T) {
	m, start := newMarket(t)
	deadline := start.Add(time.Hour)
	if _, err := m.PlaceBid("slow", 10*bank.Credit, deadline); err != nil {
		t.Fatal(err)
	}
	if _, err := m.PlaceBid("fast", 10*bank.Credit, deadline); err != nil {
		t.Fatal(err)
	}
	m.Tick(start.Add(10 * time.Second))
	if err := m.Boost("fast", 20*bank.Credit); err != nil {
		t.Fatal(err)
	}
	m.Tick(start.Add(20 * time.Second))
	shares := m.Shares()
	var slow, fast float64
	for _, s := range shares {
		switch s.Bidder {
		case "slow":
			slow = s.Fraction
		case "fast":
			fast = s.Fraction
		}
	}
	if fast <= slow {
		t.Errorf("boost did not raise share: fast=%v slow=%v", fast, slow)
	}
	if err := m.Boost("ghost", bank.Credit); !errors.Is(err, ErrUnknownBidder) {
		t.Errorf("ghost boost: %v", err)
	}
	if err := m.Boost("fast", 0); !errors.Is(err, ErrBadBid) {
		t.Errorf("zero boost: %v", err)
	}
}

func TestCancelRefundsRemaining(t *testing.T) {
	m, start := newMarket(t)
	if _, err := m.PlaceBid("u1", 10*bank.Credit, start.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	refund, err := m.CancelBid("u1")
	if err != nil {
		t.Fatal(err)
	}
	if refund != 10*bank.Credit {
		t.Errorf("refund = %v", refund)
	}
	if _, err := m.CancelBid("u1"); !errors.Is(err, ErrUnknownBidder) {
		t.Errorf("double cancel: %v", err)
	}
}

// TestCancelAllMatchesCancellingEachShare holds CancelAll to what it replaced
// in grid.FailHost: list the book through Shares, then CancelBid one bidder
// at a time, keeping the positive remainders. Twin markets go through the
// same random books under every mechanism; the refunds must be equal, value
// and order, and both books empty afterwards and open for business.
func TestCancelAllMatchesCancellingEachShare(t *testing.T) {
	for _, name := range mechanism.Names() {
		t.Run(name, func(t *testing.T) {
			src := rng.New(5)
			for round := 0; round < 200; round++ {
				all, each := newMarketWith(t, name, sim.Epoch), newMarketWith(t, name, sim.Epoch)
				now := sim.Epoch
				for n := src.Intn(13); n > 0; n-- {
					bidder := BidderID(fmt.Sprintf("u%02d", src.Intn(12)))
					budget := bank.Amount(1 + src.Intn(3_000_000))
					deadline := now.Add(time.Duration(1+src.Intn(6)) * DefaultInterval)
					for _, m := range []*Market{all, each} {
						if _, err := m.PlaceBid(bidder, budget, deadline); err != nil {
							t.Fatal(err)
						}
					}
					if src.Intn(3) == 0 { // a clear or two in between: budgets part-spent
						now = now.Add(DefaultInterval)
						all.Tick(now)
						each.Tick(now)
					}
				}
				var want []Charge
				for _, s := range each.Shares() {
					if remaining, err := each.CancelBid(s.Bidder); err == nil && remaining > 0 {
						want = append(want, Charge{Bidder: s.Bidder, Amount: remaining})
					}
				}
				got := all.CancelAll()
				if !slices.Equal(got, want) || (got == nil) != (want == nil) {
					t.Fatalf("round %d: CancelAll = %v, cancelling each share gave %v", round, got, want)
				}
				if all.Bidders() != 0 || len(all.Shares()) != 0 || all.PriceExcluding("") != each.PriceExcluding("") {
					t.Fatalf("round %d: book not empty after CancelAll: %d bidders", round, all.Bidders())
				}
				if _, err := all.PlaceBid("late", bank.Credit, now.Add(time.Hour)); err != nil || all.Bidders() != 1 {
					t.Fatalf("round %d: bid after CancelAll: %v", round, err)
				}
			}
		})
	}
}

func TestRebidRefundsOldBudget(t *testing.T) {
	m, start := newMarket(t)
	if _, err := m.PlaceBid("u1", 10*bank.Credit, start.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	refund, err := m.PlaceBid("u1", 5*bank.Credit, start.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if refund != 10*bank.Credit {
		t.Errorf("replace refund = %v", refund)
	}
}

func TestPriceExcluding(t *testing.T) {
	m, start := newMarket(t)
	deadline := start.Add(time.Hour)
	if _, err := m.PlaceBid("u1", 36*bank.Credit, deadline); err != nil { // 0.01 c/s
		t.Fatal(err)
	}
	if _, err := m.PlaceBid("u2", 72*bank.Credit, deadline); err != nil { // 0.02 c/s
		t.Fatal(err)
	}
	if got := m.PriceExcluding("u1"); !mathx.AlmostEqual(got, 0.02, 1e-9) {
		t.Errorf("price excluding u1 = %v, want 0.02", got)
	}
	if got := m.PriceExcluding("nobody"); !mathx.AlmostEqual(got, 0.03, 1e-9) {
		t.Errorf("price excluding nobody = %v, want 0.03", got)
	}
	// Empty market floors at the reserve price.
	m2, _ := NewMarket(Config{HostID: "h2", CapacityMHz: 1000, Start: start, ReservePrice: 0.001})
	if got := m2.PriceExcluding("u"); got != 0.001 {
		t.Errorf("reserve floor = %v", got)
	}
}

func TestIdlePriceFallsToReserve(t *testing.T) {
	m, start := newMarket(t)
	if _, err := m.PlaceBid("u1", bank.Credit, start.Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	m.Tick(start.Add(10 * time.Second))
	if m.SpotPrice() <= 1e-6 {
		t.Error("price should reflect the live bid")
	}
	m.Tick(start.Add(2 * time.Minute)) // bid expires
	if m.SpotPrice() != 1e-6 {
		t.Errorf("idle price = %v, want reserve", m.SpotPrice())
	}
}

func TestObserverSeesEveryTick(t *testing.T) {
	m, start := newMarket(t)
	var prices []float64
	var times []time.Time
	m.Observe(func(p float64, at time.Time) {
		prices = append(prices, p)
		times = append(times, at)
	})
	if _, err := m.PlaceBid("u1", 36*bank.Credit, start.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		m.Tick(start.Add(time.Duration(i) * 10 * time.Second))
	}
	if len(prices) != 3 {
		t.Fatalf("observer calls = %d", len(prices))
	}
	for i, p := range prices {
		if !mathx.AlmostEqual(p, 0.01, 1e-9) {
			t.Errorf("tick %d price = %v", i, p)
		}
	}
	if !times[2].Equal(start.Add(30 * time.Second)) {
		t.Errorf("tick time = %v", times[2])
	}
}

func TestSharesSumToOneWithManyBidders(t *testing.T) {
	m, start := newMarket(t)
	deadline := start.Add(time.Hour)
	for i := 0; i < 20; i++ {
		budget := bank.Amount(i+1) * bank.Credit
		if _, err := m.PlaceBid(BidderID(fmt.Sprintf("u%02d", i)), budget, deadline); err != nil {
			t.Fatal(err)
		}
	}
	m.Tick(start.Add(10 * time.Second))
	var sum float64
	for _, s := range m.Shares() {
		sum += s.Fraction
	}
	if !mathx.AlmostEqual(sum, 1, 1e-9) {
		t.Errorf("shares sum to %v", sum)
	}
}

func TestDeliveredMHzClamped(t *testing.T) {
	m, _ := newMarket(t)
	if m.DeliveredMHz(0.5) != 1400 {
		t.Error("half share of 2800 MHz should be 1400")
	}
	if m.DeliveredMHz(2) != 2800 || m.DeliveredMHz(-1) != 0 {
		t.Error("fraction not clamped")
	}
}

func BenchmarkTick(b *testing.B) {
	m, _ := NewMarket(Config{HostID: "h", CapacityMHz: 2800, Start: sim.Epoch})
	deadline := sim.Epoch.Add(1000 * time.Hour)
	for i := 0; i < 50; i++ {
		if _, err := m.PlaceBid(BidderID(fmt.Sprintf("u%d", i)), 1000*bank.Credit, deadline); err != nil {
			b.Fatal(err)
		}
	}
	now := sim.Epoch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now = now.Add(10 * time.Second)
		m.Tick(now)
	}
}

// DeliveredMHz returns the CPU capacity a bidder with the given share
// fraction receives, the quantity the paper's Figure 3 plots against budget.
func (m *Market) DeliveredMHz(fraction float64) float64 {
	return m.capacity * math.Max(0, math.Min(1, fraction))
}
