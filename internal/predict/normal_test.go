package predict

import (
	"testing"

	"tycoongrid/internal/mathx"
)

var testHost = HostPrice{HostID: "h1", Preference: 2800, Mu: 0.01, Sigma: 0.004}

func TestQuantilePrice(t *testing.T) {
	// p = 0.5 is the mean.
	y, err := testHost.QuantilePrice(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !mathx.AlmostEqual(y, 0.01, 1e-12) {
		t.Errorf("median price = %v", y)
	}
	// Higher guarantee => higher assumed price.
	y9, _ := testHost.QuantilePrice(0.9)
	y99, _ := testHost.QuantilePrice(0.99)
	if !(y99 > y9 && y9 > y) {
		t.Errorf("quantiles not increasing: %v %v %v", y, y9, y99)
	}
	// Known value: mu + sigma * 1.2815515655 at p=0.9.
	if !mathx.AlmostEqual(y9, 0.01+0.004*1.2815515655446004, 1e-9) {
		t.Errorf("q90 = %v", y9)
	}
}

func TestQuantilePriceValidation(t *testing.T) {
	if _, err := testHost.QuantilePrice(0); err == nil {
		t.Error("p=0 accepted")
	}
	if _, err := testHost.QuantilePrice(1); err == nil {
		t.Error("p=1 accepted")
	}
	bad := testHost
	bad.Sigma = -1
	if _, err := bad.QuantilePrice(0.5); err == nil {
		t.Error("negative sigma accepted")
	}
}

func TestQuantilePriceClampedAtZero(t *testing.T) {
	h := HostPrice{HostID: "x", Preference: 1000, Mu: 0.001, Sigma: 0.1}
	y, err := h.QuantilePrice(0.01) // deep left tail goes negative
	if err != nil {
		t.Fatal(err)
	}
	if y != 0 {
		t.Errorf("left-tail price = %v, want clamp at 0", y)
	}
}

func TestGuaranteedCapacityShape(t *testing.T) {
	// Figure 3 shape: concave increasing in budget, decreasing in p.
	prev := 0.0
	for _, b := range []float64{0.001, 0.005, 0.01, 0.05, 0.1} {
		c, err := GuaranteedCapacityMHz(testHost, b, 0.9)
		if err != nil {
			t.Fatal(err)
		}
		if c <= prev {
			t.Fatalf("capacity not increasing at budget %v: %v <= %v", b, c, prev)
		}
		if c >= testHost.Preference {
			t.Fatalf("capacity %v exceeds host capacity", c)
		}
		prev = c
	}
	c80, _ := GuaranteedCapacityMHz(testHost, 0.01, 0.80)
	c90, _ := GuaranteedCapacityMHz(testHost, 0.01, 0.90)
	c99, _ := GuaranteedCapacityMHz(testHost, 0.01, 0.99)
	if !(c80 > c90 && c90 > c99) {
		t.Errorf("guarantee ordering violated: %v %v %v", c80, c90, c99)
	}
}

func TestGuaranteedCapacityKnownAlgebra(t *testing.T) {
	// With budget == quantile price, the share is exactly half the host.
	y, _ := testHost.QuantilePrice(0.9)
	c, err := GuaranteedCapacityMHz(testHost, y, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if !mathx.AlmostEqual(c, testHost.Preference/2, 1e-9) {
		t.Errorf("capacity at x=y: %v, want half capacity", c)
	}
	if _, err := GuaranteedCapacityMHz(testHost, 0, 0.9); err == nil {
		t.Error("zero budget accepted")
	}
}

func TestRecommendBudgetInverts(t *testing.T) {
	for _, target := range []float64{100, 500, 1600, 2500} {
		x, err := RecommendBudget(testHost, target, 0.9)
		if err != nil {
			t.Fatalf("target %v: %v", target, err)
		}
		c, err := GuaranteedCapacityMHz(testHost, x, 0.9)
		if err != nil {
			t.Fatal(err)
		}
		if !mathx.AlmostEqual(c, target, 1e-6*target) {
			t.Errorf("target %v: recommended budget %v delivers %v", target, x, c)
		}
	}
	if _, err := RecommendBudget(testHost, 2800, 0.9); err == nil {
		t.Error("target at full capacity accepted")
	}
	if _, err := RecommendBudget(testHost, 0, 0.9); err == nil {
		t.Error("zero target accepted")
	}
}

func TestGuaranteedUtilityMultiHost(t *testing.T) {
	hosts := []HostPrice{
		{HostID: "a", Preference: 2800, Mu: 0.01, Sigma: 0.002},
		{HostID: "b", Preference: 1400, Mu: 0.02, Sigma: 0.01},
		{HostID: "c", Preference: 3600, Mu: 0.005, Sigma: 0.001},
	}
	u1, err := GuaranteedUtility(0.01, 0.9, hosts)
	if err != nil {
		t.Fatal(err)
	}
	u2, err := GuaranteedUtility(0.05, 0.9, hosts)
	if err != nil {
		t.Fatal(err)
	}
	if u2 <= u1 {
		t.Errorf("utility not increasing in budget: %v, %v", u1, u2)
	}
	// Decreasing in guarantee level.
	u99, err := GuaranteedUtility(0.01, 0.99, hosts)
	if err != nil {
		t.Fatal(err)
	}
	if u99 >= u1 {
		t.Errorf("utility should fall with stricter guarantee: %v vs %v", u99, u1)
	}
	if _, err := GuaranteedUtility(0.01, 0.9, nil); err != ErrNoHosts {
		t.Errorf("no hosts: %v", err)
	}
}

func TestDeadlineProbability(t *testing.T) {
	hosts := []HostPrice{
		{HostID: "a", Preference: 2800, Mu: 0.01, Sigma: 0.002},
	}
	// Modest requirement: met with high probability.
	pHigh, err := DeadlineProbability(0.05, 1000, hosts)
	if err != nil {
		t.Fatal(err)
	}
	// Demanding requirement: lower probability.
	pLow, err := DeadlineProbability(0.05, 2700, hosts)
	if err != nil {
		t.Fatal(err)
	}
	if pHigh <= pLow {
		t.Errorf("probabilities not ordered: easy %v, hard %v", pHigh, pLow)
	}
	// Impossible requirement.
	p0, err := DeadlineProbability(0.0001, 2799.99, hosts)
	if err != nil {
		t.Fatal(err)
	}
	if p0 != 0 {
		t.Errorf("impossible deadline probability = %v", p0)
	}
	// Trivial requirement.
	p1, err := DeadlineProbability(10, 1, hosts)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != 1 {
		t.Errorf("trivial deadline probability = %v", p1)
	}
}

func TestCurveAndKnee(t *testing.T) {
	prev := 0.0
	for _, b := range []float64{0.001, 0.01, 0.02, 0.05, 0.1} {
		c, err := GuaranteedCapacityMHz(testHost, b, 0.9)
		if err != nil {
			t.Fatal(err)
		}
		if c <= prev {
			t.Errorf("capacity %v at budget %v does not exceed %v", c, b, prev)
		}
		prev = c
	}
	knee, err := Knee(testHost, 0.9, 0.05, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if knee <= 0 || knee >= 0.5 {
		t.Errorf("knee = %v, expected an interior flattening point", knee)
	}
	if _, err := Knee(testHost, 0.9, 0, 1); err == nil {
		t.Error("frac=0 accepted")
	}
}
