package stats

import (
	"math"
	"sort"
	"testing"

	"tycoongrid/internal/mathx"
	"tycoongrid/internal/rng"
)

func TestNewMovingMomentsValidation(t *testing.T) {
	if _, err := NewMovingMoments(0); err == nil {
		t.Error("want error for window 0")
	}
	if _, err := NewMovingMoments(1); err != nil {
		t.Errorf("window 1 should be allowed: %v", err)
	}
}

func TestWindowOneIgnoresHistory(t *testing.T) {
	m, _ := NewMovingMoments(1)
	m.Observe(100)
	m.Observe(3)
	// With alpha = 0, previous moments are ignored: mean is the last price.
	if m.Mean() != 3 {
		t.Errorf("mean = %v, want 3", m.Mean())
	}
	if m.StdDev() != 0 {
		t.Errorf("stddev = %v, want 0 (single point)", m.StdDev())
	}
}

func TestMovingMomentsMatchRecurrence(t *testing.T) {
	n := 5
	m, _ := NewMovingMoments(n)
	alpha := 1 - 1/float64(n)
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	var mu [4]float64
	for i, x := range xs {
		m.Observe(x)
		xp := x
		for p := 0; p < 4; p++ {
			if i == 0 {
				mu[p] = xp
			} else {
				mu[p] = alpha*mu[p] + (1-alpha)*xp
			}
			xp *= x
		}
	}
	for p := 1; p <= 4; p++ {
		if !mathx.AlmostEqual(m.mu[p-1], mu[p-1], 1e-12) {
			t.Errorf("moment %d = %v, want %v", p, m.mu[p-1], mu[p-1])
		}
	}
	if m.count != int64(len(xs)) {
		t.Errorf("count = %d", m.count)
	}
}

func TestMovingMomentsConstantSeries(t *testing.T) {
	m, _ := NewMovingMoments(10)
	for i := 0; i < 100; i++ {
		m.Observe(7)
	}
	if !mathx.AlmostEqual(m.Mean(), 7, 1e-12) {
		t.Errorf("mean = %v", m.Mean())
	}
	if m.StdDev() > 1e-6 {
		t.Errorf("stddev = %v, want ~0", m.StdDev())
	}
	if m.Skewness() != 0 || m.Kurtosis() != 0 {
		t.Error("degenerate sigma should yield zero skewness/kurtosis")
	}
}

func TestMovingMomentsConvergeToDistribution(t *testing.T) {
	// Feed a long i.i.d. normal stream: the smoothed window stats must land
	// near the true distribution's moments.
	src := rng.New(99)
	m, _ := NewMovingMoments(2000)
	for i := 0; i < 200000; i++ {
		m.Observe(src.Normal(10, 2))
	}
	if !mathx.AlmostEqual(m.Mean(), 10, 0.2) {
		t.Errorf("mean = %v, want ~10", m.Mean())
	}
	if !mathx.AlmostEqual(m.StdDev(), 2, 0.2) {
		t.Errorf("stddev = %v, want ~2", m.StdDev())
	}
	if math.Abs(m.Skewness()) > 0.25 {
		t.Errorf("skewness = %v, want ~0", m.Skewness())
	}
	if math.Abs(m.Kurtosis()) > 0.5 {
		t.Errorf("kurtosis = %v, want ~0", m.Kurtosis())
	}
}

func TestMovingMomentsSkewedDistribution(t *testing.T) {
	// Exp(1) has skewness 2 and excess kurtosis 6.
	src := rng.New(123)
	m, _ := NewMovingMoments(5000)
	for i := 0; i < 400000; i++ {
		m.Observe(src.Exponential(1))
	}
	if !mathx.AlmostEqual(m.Skewness(), 2, 0.4) {
		t.Errorf("skewness = %v, want ~2", m.Skewness())
	}
	if !mathx.AlmostEqual(m.Kurtosis(), 6, 2.0) {
		t.Errorf("kurtosis = %v, want ~6", m.Kurtosis())
	}
}

func TestSnapshotBundles(t *testing.T) {
	m, _ := NewMovingMoments(4)
	for _, x := range []float64{1, 2, 3, 4, 5} {
		m.Observe(x)
	}
	s := m.Snapshot()
	if s.Mean != m.Mean() || s.StdDev != m.StdDev() ||
		s.Skewness != m.Skewness() || s.Kurtosis != m.Kurtosis() || s.Count != 5 {
		t.Error("snapshot fields do not match accessors")
	}
}

func TestDescribeSample(t *testing.T) {
	d := DescribeSample([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if d.N != 8 || d.Mean != 5 || !mathx.AlmostEqual(d.StdDev, 2, 1e-12) {
		t.Errorf("describe = %+v", d)
	}
	if d.Min != 2 || d.Max != 9 {
		t.Errorf("min/max = %v/%v", d.Min, d.Max)
	}
	if DescribeSample(nil).N != 0 {
		t.Error("empty sample")
	}
}

func TestDescribeSampleMomentsOfNormal(t *testing.T) {
	src := rng.New(5)
	xs := make([]float64, 100000)
	for i := range xs {
		xs[i] = src.Normal(0, 1)
	}
	d := DescribeSample(xs)
	if math.Abs(d.Skewness) > 0.05 || math.Abs(d.Kurtosis) > 0.1 {
		t.Errorf("normal sample skew=%v kurt=%v", d.Skewness, d.Kurtosis)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	sort.Float64s(xs)
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 5}, {0.5, 3}, {0.25, 2}, {0.75, 4}, {-1, 1}, {2, 5},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.q); got != c.want {
			t.Errorf("Percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(Percentile(nil, 0.5)) {
		t.Error("empty percentile should be NaN")
	}
	// Interpolation between order statistics.
	if got := Percentile([]float64{0, 10}, 0.35); !mathx.AlmostEqual(got, 3.5, 1e-12) {
		t.Errorf("interpolated percentile = %v", got)
	}
}

func BenchmarkMovingMomentsObserve(b *testing.B) {
	m, _ := NewMovingMoments(360)
	for i := 0; i < b.N; i++ {
		m.Observe(float64(i % 17))
	}
}
