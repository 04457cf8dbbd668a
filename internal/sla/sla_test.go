package sla

import (
	"errors"
	"testing"
	"time"

	"tycoongrid/internal/bank"
	"tycoongrid/internal/mathx"
	"tycoongrid/internal/predict"
	"tycoongrid/internal/rng"
)

var model = predict.HostPrice{HostID: "h1", Preference: 5600, Mu: 0.002, Sigma: 0.0006}

func TestPriceAgreementAlgebra(t *testing.T) {
	q, err := PriceAgreement(model, "h1", 5600, 2800, time.Hour, 0.9, 0.2, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	// Holding half the host needs x = y (x/(x+y) = 1/2).
	y, _ := model.QuantilePrice(0.9)
	if !mathx.AlmostEqual(q.SpendRate, y, 1e-12) {
		t.Errorf("spend rate = %v, want %v", q.SpendRate, y)
	}
	wantPremium := bank.MustCredits(y * 3600 * 1.2)
	if q.Premium != wantPremium {
		t.Errorf("premium = %v, want %v", q.Premium, wantPremium)
	}
	if q.PenaltyRate != q.SpendRate {
		t.Errorf("penalty rate = %v", q.PenaltyRate)
	}
}

func TestPriceAgreementStricterConfidenceCostsMore(t *testing.T) {
	q90, err := PriceAgreement(model, "h1", 5600, 2000, time.Hour, 0.90, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	q99, err := PriceAgreement(model, "h1", 5600, 2000, time.Hour, 0.99, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if q99.Premium <= q90.Premium {
		t.Errorf("99%% premium %v <= 90%% premium %v", q99.Premium, q90.Premium)
	}
}

func TestPriceAgreementValidation(t *testing.T) {
	cases := []struct {
		capacity float64
		window   time.Duration
		p        float64
	}{
		{0, time.Hour, 0.9},
		{1000, 0, 0.9},
		{1000, time.Hour, 0},
		{1000, time.Hour, 1},
		{5600, time.Hour, 0.9}, // full host: infeasible
		{9000, time.Hour, 0.9},
	}
	for i, c := range cases {
		if _, err := PriceAgreement(model, "h1", 5600, c.capacity, c.window, c.p, 0, 1); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestAgreementLifecycle(t *testing.T) {
	q, err := PriceAgreement(model, "h1", 5600, 2800, time.Hour, 0.9, 0.2, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Accept(q, "alice", time.Now())
	if err != nil {
		t.Fatal(err)
	}
	// 6 intervals: 4 delivered, 2 violated.
	for i := 0; i < 4; i++ {
		if err := a.Observe(3000, 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if err := a.Observe(1000, 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if !mathx.AlmostEqual(a.ViolationRate(), 2.0/6, 1e-12) {
		t.Errorf("violation rate = %v", a.ViolationRate())
	}
	if _, err := Accept(q, "", time.Now()); err == nil {
		t.Error("empty customer accepted")
	}
}

// TestAgreementObserveEdges: before any interval the rate is zero, a
// delivery of exactly the contracted capacity is no violation, and a
// non-positive interval is refused without being counted.
func TestAgreementObserveEdges(t *testing.T) {
	q, err := PriceAgreement(model, "h1", 5600, 2800, time.Hour, 0.9, 0.2, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Accept(q, "alice", time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if r := a.ViolationRate(); r != 0 {
		t.Errorf("rate before any interval = %v", r)
	}
	if err := a.Observe(q.CapacityMHz, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	for _, dt := range []time.Duration{0, -time.Second} {
		if err := a.Observe(0, dt); !errors.Is(err, ErrBadTerms) {
			t.Errorf("interval %v: err = %v, want ErrBadTerms", dt, err)
		}
	}
	if err := a.Observe(q.CapacityMHz-1, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if r := a.ViolationRate(); r != 0.5 {
		t.Errorf("rate = %v, want 1 violation in 2 counted intervals", r)
	}
}

// TestSLACalibration is the headline property the paper's future work is
// after: an SLA priced at confidence p from the normal model is violated in
// about (1-p) of intervals when spot prices actually follow that model and
// the broker spends the quoted rate.
func TestSLACalibration(t *testing.T) {
	src := rng.New(2006)
	for _, p := range []float64{0.80, 0.90, 0.95} {
		q, err := PriceAgreement(model, "h1", 5600, 2000, time.Hour, p, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		a, _ := Accept(q, "alice", time.Now())
		const n = 200000
		for i := 0; i < n; i++ {
			spot := src.Normal(model.Mu, model.Sigma) // other users' spend
			if spot < 0 {
				spot = 0
			}
			// Broker bids the quoted rate; delivered share = x/(x+spot).
			delivered := 5600 * q.SpendRate / (q.SpendRate + spot)
			if err := a.Observe(delivered, 10*time.Second); err != nil {
				t.Fatal(err)
			}
		}
		got := a.ViolationRate()
		want := 1 - p
		if !mathx.AlmostEqual(got, want, 0.01) {
			t.Errorf("p=%v: violation rate %.4f, want ~%.4f", p, got, want)
		}
	}
}

func TestBachelierCall(t *testing.T) {
	// At-the-money: E[max(Y-mu,0)] = sigma/sqrt(2*pi).
	got := BachelierCall(1, 0.5, 1)
	want := 0.5 / mathx.Sqrt2Pi
	if !mathx.AlmostEqual(got, want, 1e-12) {
		t.Errorf("ATM = %v, want %v", got, want)
	}
	// Deep in the money: ~ mu - strike.
	if got := BachelierCall(10, 0.1, 1); !mathx.AlmostEqual(got, 9, 1e-6) {
		t.Errorf("deep ITM = %v", got)
	}
	// Deep out of the money: ~ 0.
	if got := BachelierCall(1, 0.1, 10); got > 1e-10 {
		t.Errorf("deep OTM = %v", got)
	}
	// Degenerate sigma.
	if BachelierCall(2, 0, 1) != 1 || BachelierCall(1, 0, 2) != 0 {
		t.Error("sigma=0 cases")
	}
}

func TestBachelierMonteCarlo(t *testing.T) {
	src := rng.New(3)
	mu, sigma, strike := 0.002, 0.0006, 0.0022
	var sum float64
	const n = 400000
	for i := 0; i < n; i++ {
		y := src.Normal(mu, sigma)
		if y > strike {
			sum += y - strike
		}
	}
	mc := sum / n
	if !mathx.AlmostEqual(BachelierCall(mu, sigma, strike), mc, 3e-6) {
		t.Errorf("Bachelier %v vs Monte Carlo %v", BachelierCall(mu, sigma, strike), mc)
	}
}

func TestSwingOptionLifecycle(t *testing.T) {
	o, err := PriceSwing("h1", 0.002, 0.0006, 0.0022, 3, 10, 10*time.Second, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if o.Premium <= 0 {
		t.Errorf("premium = %v", o.Premium)
	}
	if !o.ShouldExercise(0.003) {
		t.Error("ITM not exercised")
	}
	if o.ShouldExercise(0.001) {
		t.Error("OTM exercised")
	}
	for i := 0; i < 3; i++ {
		save, err := o.Exercise(0.003)
		if err != nil {
			t.Fatal(err)
		}
		if save != bank.MustCredits(0.0008*10) {
			t.Errorf("saving = %v", save)
		}
	}
	if o.Remaining() != 0 {
		t.Errorf("remaining = %d", o.Remaining())
	}
	if o.ShouldExercise(1) {
		t.Error("exhausted option still exercisable")
	}
	if _, err := o.Exercise(1); err == nil {
		t.Error("over-exercise accepted")
	}
	if !mathx.AlmostEqual(o.Payoff(), 3*0.0008*10, 1e-9) {
		t.Errorf("payoff = %v", o.Payoff())
	}
}

func TestSwingFairPricing(t *testing.T) {
	// With zero margin and a rational holder, expected payoff equals the
	// premium (law of large numbers over many option lifetimes).
	src := rng.New(11)
	mu, sigma, strike := 0.002, 0.0006, 0.0022
	const rights = 10
	const trials = 20000
	var totalPayoff float64
	o1, err := PriceSwing("h", mu, sigma, strike, rights, 40, 10*time.Second, 0)
	if err != nil {
		t.Fatal(err)
	}
	for tr := 0; tr < trials; tr++ {
		o, err := PriceSwing("h", mu, sigma, strike, rights, 40, 10*time.Second, 0)
		if err != nil {
			t.Fatal(err)
		}
		// Spot evolves i.i.d. normal; holder exercises whenever ITM.
		for step := 0; step < 40 && o.Remaining() > 0; step++ {
			spot := src.Normal(mu, sigma)
			if o.ShouldExercise(spot) {
				if _, err := o.Exercise(spot); err != nil {
					t.Fatal(err)
				}
			}
		}
		totalPayoff += o.Payoff()
	}
	meanPayoff := totalPayoff / trials
	premium := o1.Premium.Credits()
	// Fair pricing: the holder's mean payoff matches the zero-margin
	// premium to within Monte Carlo noise.
	if meanPayoff > premium*1.03 || meanPayoff < premium*0.97 {
		t.Errorf("mispriced: payoff %v vs premium %v", meanPayoff, premium)
	}
}

func TestPriceSwingValidation(t *testing.T) {
	if _, err := PriceSwing("h", 1, 1, 1, 0, 10, time.Second, 0); err == nil {
		t.Error("zero rights accepted")
	}
	if _, err := PriceSwing("h", 1, 1, 1, 5, 3, time.Second, 0); err == nil {
		t.Error("opportunities < rights accepted")
	}
	if _, err := PriceSwing("h", 1, 1, 1, 1, 1, 0, 0); err == nil {
		t.Error("zero interval accepted")
	}
	if _, err := PriceSwing("h", 1, -1, 1, 1, 1, time.Second, 0); err == nil {
		t.Error("negative sigma accepted")
	}
}
