package predict

import (
	"math"
	"testing"

	"tycoongrid/internal/mathx"
	"tycoongrid/internal/rng"
	"tycoongrid/internal/stats"
)

func TestEmpiricalQuantileUniform(t *testing.T) {
	// A flat distribution over [0, 1): quantiles are the identity.
	buckets := []stats.Bucket{
		{Lo: 0, Hi: 0.5, Proportion: 0.5},
		{Lo: 0.5, Hi: 1, Proportion: 0.5},
	}
	e, err := NewEmpiricalPrice("h", 1000, buckets)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
		q, err := e.QuantilePrice(p)
		if err != nil {
			t.Fatal(err)
		}
		if !mathx.AlmostEqual(q, p, 1e-12) {
			t.Errorf("Q(%v) = %v", p, q)
		}
	}
}

func TestEmpiricalMatchesNormalOnNormalData(t *testing.T) {
	// With normal price data, the empirical quantiles must agree with the
	// parametric normal model.
	src := rng.New(8)
	sample := make([]float64, 200000)
	for i := range sample {
		sample[i] = src.Normal(0.01, 0.002)
	}
	e, err := NewEmpiricalPriceFromSample("h", 2800, sample, 64)
	if err != nil {
		t.Fatal(err)
	}
	hp := HostPrice{HostID: "h", Preference: 2800, Mu: 0.01, Sigma: 0.002}
	for _, p := range []float64{0.2, 0.5, 0.8, 0.9} {
		qe, err := e.QuantilePrice(p)
		if err != nil {
			t.Fatal(err)
		}
		qn, err := hp.QuantilePrice(p)
		if err != nil {
			t.Fatal(err)
		}
		if !mathx.AlmostEqual(qe, qn, 0.0006) {
			t.Errorf("p=%v: empirical %v vs normal %v", p, qe, qn)
		}
	}
}

func TestEmpiricalCapturesHeavyTail(t *testing.T) {
	// A bimodal price (cheap most of the time, spikes 10% of the time) is
	// exactly what the normal model mishandles and the empirical one nails.
	src := rng.New(9)
	sample := make([]float64, 100000)
	for i := range sample {
		if src.Float64() < 0.9 {
			sample[i] = src.Uniform(0.001, 0.002)
		} else {
			sample[i] = src.Uniform(0.05, 0.06)
		}
	}
	e, err := NewEmpiricalPriceFromSample("h", 2800, sample, 64)
	if err != nil {
		t.Fatal(err)
	}
	// The 85% quantile sits in the cheap mode...
	q85, _ := e.QuantilePrice(0.85)
	if q85 > 0.003 {
		t.Errorf("q85 = %v, want cheap mode", q85)
	}
	// ...and the 99% quantile in the spike mode.
	q99, _ := e.QuantilePrice(0.99)
	if q99 < 0.05 {
		t.Errorf("q99 = %v, want spike mode", q99)
	}
	// The normal model, by contrast, badly misplaces the 99% quantile.
	d := stats.DescribeSample(sample)
	hp := HostPrice{HostID: "h", Preference: 2800, Mu: d.Mean, Sigma: d.StdDev}
	qn, _ := hp.QuantilePrice(0.99)
	if math.Abs(qn-q99) < 0.01 {
		t.Errorf("normal model unexpectedly matched the tail: %v vs %v", qn, q99)
	}
}

func TestEmpiricalValidation(t *testing.T) {
	if _, err := NewEmpiricalPrice("h", 0, []stats.Bucket{{Lo: 0, Hi: 1, Proportion: 1}}); err == nil {
		t.Error("zero preference accepted")
	}
	if _, err := NewEmpiricalPrice("h", 1, nil); err == nil {
		t.Error("no buckets accepted")
	}
	if _, err := NewEmpiricalPrice("h", 1, []stats.Bucket{{Lo: 1, Hi: 0, Proportion: 1}}); err == nil {
		t.Error("inverted bucket accepted")
	}
	if _, err := NewEmpiricalPrice("h", 1, []stats.Bucket{{Lo: 0, Hi: 1, Proportion: 0}}); err == nil {
		t.Error("empty distribution accepted")
	}
	if _, err := NewEmpiricalPriceFromSample("h", 1, nil, 8); err == nil {
		t.Error("empty sample accepted")
	}
	e, _ := NewEmpiricalPrice("h", 1, []stats.Bucket{{Lo: 0, Hi: 1, Proportion: 1}})
	for _, p := range []float64{0, 1, -1} {
		if _, err := e.QuantilePrice(p); err == nil {
			t.Errorf("p=%v accepted", p)
		}
	}
}

func TestEmpiricalNegativePricesClamped(t *testing.T) {
	e, err := NewEmpiricalPrice("h", 1, []stats.Bucket{{Lo: -1, Hi: 1, Proportion: 1}})
	if err != nil {
		t.Fatal(err)
	}
	q, err := e.QuantilePrice(0.1)
	if err != nil {
		t.Fatal(err)
	}
	if q != 0 {
		t.Errorf("negative quantile not clamped: %v", q)
	}
}
