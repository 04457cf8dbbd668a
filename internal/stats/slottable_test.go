package stats

import (
	"math"
	"testing"
	"testing/quick"

	"tycoongrid/internal/mathx"
	"tycoongrid/internal/rng"
)

func TestNewSlotTableValidation(t *testing.T) {
	if _, err := NewSlotTable(1); err == nil {
		t.Error("want error for 1 slot")
	}
	if _, err := NewSlotTable(2); err != nil {
		t.Errorf("2 slots should be fine: %v", err)
	}
}

func TestSlotTableBasicCounting(t *testing.T) {
	st, _ := NewSlotTable(10)
	for i := 0; i < 100; i++ {
		st.Observe(1.0)
	}
	if st.n != 100 {
		t.Errorf("count = %v", st.n)
	}
	props := st.Proportions()
	var sum float64
	for _, p := range props {
		sum += p
	}
	if !mathx.AlmostEqual(sum, 1, 1e-12) {
		t.Errorf("proportions sum to %v", sum)
	}
}

func TestSlotTableExpandsRange(t *testing.T) {
	st, _ := NewSlotTable(8)
	st.Observe(1)
	st.Observe(100) // far outside the seeded range
	st.Observe(-50)
	min, width := st.Bounds()
	if min > -50 {
		t.Errorf("min = %v should cover -50", min)
	}
	if min+width*8 < 100 {
		t.Errorf("range [%v, %v) should cover 100", min, min+width*8)
	}
	if st.n != 3 {
		t.Errorf("count = %v, expansion must not lose observations", st.n)
	}
}

func TestSlotTableIgnoresNonFinite(t *testing.T) {
	st, _ := NewSlotTable(4)
	st.Observe(math.NaN())
	st.Observe(math.Inf(1))
	st.Observe(math.Inf(-1))
	if st.n != 0 {
		t.Error("non-finite prices must be dropped")
	}
	st.Observe(2)
	if st.n != 1 {
		t.Error("finite price after junk must count")
	}
}

func TestSlotTableZeroSeed(t *testing.T) {
	st, _ := NewSlotTable(4)
	st.Observe(0)
	_, width := st.Bounds()
	if width <= 0 {
		t.Errorf("width = %v after zero seed", width)
	}
}

func TestSlotTableResetKeepsRange(t *testing.T) {
	st, _ := NewSlotTable(4)
	st.Observe(10)
	st.Observe(20)
	minBefore, widthBefore := st.Bounds()
	st.Reset()
	if st.n != 0 {
		t.Error("reset should clear counts")
	}
	minAfter, widthAfter := st.Bounds()
	if minBefore != minAfter || widthBefore != widthAfter {
		t.Error("reset should keep learned range")
	}
}

func TestSlotTableProportionsSumToOneProperty(t *testing.T) {
	f := func(seed int64, kind uint8) bool {
		src := rng.New(seed)
		st, _ := NewSlotTable(16)
		n := 50 + src.Intn(200)
		for i := 0; i < n; i++ {
			var x float64
			switch kind % 3 {
			case 0:
				x = src.Normal(5, 2)
			case 1:
				x = src.Exponential(0.5)
			default:
				x = src.Uniform(-100, 100)
			}
			st.Observe(x)
		}
		var sum float64
		for _, p := range st.Proportions() {
			sum += p
		}
		return mathx.AlmostEqual(sum, 1, 1e-9) && st.n == float64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSlotTableBuckets(t *testing.T) {
	st, _ := NewSlotTable(4)
	for _, x := range []float64{1, 1, 2, 3} {
		st.Observe(x)
	}
	bs := st.Buckets()
	if len(bs) != 4 {
		t.Fatalf("buckets = %d", len(bs))
	}
	var sum float64
	for i, b := range bs {
		if b.Hi <= b.Lo {
			t.Errorf("bucket %d: Hi <= Lo", i)
		}
		sum += b.Proportion
	}
	if !mathx.AlmostEqual(sum, 1, 1e-12) {
		t.Errorf("bucket proportions sum to %v", sum)
	}
}

func TestWindowDistributionValidation(t *testing.T) {
	if _, err := NewWindowDistribution(0, 8); err == nil {
		t.Error("want error for window 0")
	}
	if _, err := NewWindowDistribution(5, 1); err == nil {
		t.Error("want error for 1 slot")
	}
}

func TestWindowDistributionWarmup(t *testing.T) {
	w, _ := NewWindowDistribution(10, 8)
	for i := 0; i < 5; i++ {
		w.Observe(1)
	}
	props := w.Proportions()
	var sum float64
	for _, p := range props {
		sum += p
	}
	if !mathx.AlmostEqual(sum, 1, 1e-9) {
		t.Errorf("warm-up proportions sum to %v", sum)
	}
}

func TestWindowDistributionProportionsAlwaysNormalized(t *testing.T) {
	src := rng.New(17)
	w, _ := NewWindowDistribution(20, 10)
	for i := 0; i < 500; i++ {
		w.Observe(src.Normal(0.5, 0.15))
		var sum float64
		for _, p := range w.Proportions() {
			sum += p
		}
		if !mathx.AlmostEqual(sum, 1, 1e-9) {
			t.Fatalf("step %d: proportions sum to %v", i, sum)
		}
	}
}

func TestWindowDistributionArrayRecycling(t *testing.T) {
	w, _ := NewWindowDistribution(5, 8)
	// After many observations both arrays must stay within [0, 2n).
	for i := 0; i < 100; i++ {
		w.Observe(float64(i))
		if w.na >= 2*w.n || w.nb >= 2*w.n {
			t.Fatalf("step %d: array counts na=%d nb=%d exceed 2n", i, w.na, w.nb)
		}
	}
	// Invariant from the paper after warm-up: |n1 - n2| = n.
	diff := w.na - w.nb
	if diff < 0 {
		diff = -diff
	}
	if diff != w.n {
		t.Errorf("|na-nb| = %d, want n = %d", diff, w.n)
	}
}

// TestWindowApproximationTracksActual is a miniature of the paper's Figure 7
// experiment: a distribution shift lag of half the window, uniform noise, and
// the approximation should still track the current distribution closely.
func TestWindowApproximationTracksActual(t *testing.T) {
	src := rng.New(42)
	const window = 200
	w, _ := NewWindowDistribution(window, 20)

	// Noise phase: uniform junk older than the window plus half-window lag.
	for i := 0; i < window/2; i++ {
		w.Observe(src.Uniform(0, 1))
	}
	// Signal phase: Normal(0.5, 0.15) for 2 windows so the signal dominates.
	actual := make([]float64, 0, 2*window)
	for i := 0; i < 2*window; i++ {
		x := src.Normal(0.5, 0.15)
		actual = append(actual, x)
		w.Observe(x)
	}

	// Compare approximated mean against the actual signal mean by
	// integrating the reported buckets.
	var mean float64
	for _, b := range w.Buckets() {
		mean += b.Proportion * (b.Lo + b.Hi) / 2
	}
	d := DescribeSample(actual)
	if !mathx.AlmostEqual(mean, d.Mean, 0.08) {
		t.Errorf("approximated mean %v vs actual %v", mean, d.Mean)
	}
}

func BenchmarkWindowDistributionObserve(b *testing.B) {
	w, _ := NewWindowDistribution(360, 20)
	for i := 0; i < b.N; i++ {
		w.Observe(float64(i%100) / 10)
	}
}
