package predict

import (
	"testing"

	"tycoongrid/internal/mathx"
	"tycoongrid/internal/rng"
)

// roughness is the sum of squared second differences.
func roughness(xs []float64) float64 {
	var s float64
	for i := 2; i < len(xs); i++ {
		d := xs[i] - 2*xs[i-1] + xs[i-2]
		s += d * d
	}
	return s
}

func TestSmoothValidation(t *testing.T) {
	if _, err := Smooth(nil, 1); err == nil {
		t.Error("empty series accepted")
	}
	if _, err := Smooth([]float64{1, 2}, -1); err == nil {
		t.Error("negative lambda accepted")
	}
}

func TestSmoothLambdaZeroIsIdentity(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5}
	out, err := Smooth(xs, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range xs {
		if out[i] != xs[i] {
			t.Errorf("lambda=0 changed the series at %d", i)
		}
	}
	// Must be a copy, not an alias.
	out[0] = 99
	if xs[0] == 99 {
		t.Error("Smooth returned an alias of its input")
	}
}

func TestSmoothShortSeriesPassThrough(t *testing.T) {
	out, err := Smooth([]float64{1, 2}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 1 || out[1] != 2 {
		t.Errorf("short series altered: %v", out)
	}
}

func TestSmoothPreservesConstant(t *testing.T) {
	xs := make([]float64, 50)
	for i := range xs {
		xs[i] = 4.2
	}
	out, err := Smooth(xs, 100)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if !mathx.AlmostEqual(v, 4.2, 1e-9) {
			t.Fatalf("constant altered at %d: %v", i, v)
		}
	}
}

func TestSmoothPreservesLinearTrend(t *testing.T) {
	// Second differences of a line are zero, so the penalty leaves it alone.
	xs := make([]float64, 50)
	for i := range xs {
		xs[i] = 2 + 0.5*float64(i)
	}
	out, err := Smooth(xs, 1000)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if !mathx.AlmostEqual(v, xs[i], 1e-6) {
			t.Fatalf("line altered at %d: %v vs %v", i, v, xs[i])
		}
	}
}

func TestSmoothReducesRoughness(t *testing.T) {
	src := rng.New(9)
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = src.Normal(1, 0.3)
	}
	prev := roughness(xs)
	for _, lambda := range []float64{1, 10, 100} {
		out, err := Smooth(xs, lambda)
		if err != nil {
			t.Fatal(err)
		}
		r := roughness(out)
		if r >= prev {
			t.Fatalf("lambda=%v did not reduce roughness: %v >= %v", lambda, r, prev)
		}
		prev = r
	}
}

func TestSmoothPreservesMeanApproximately(t *testing.T) {
	src := rng.New(4)
	xs := make([]float64, 300)
	var mean float64
	for i := range xs {
		xs[i] = src.Uniform(0, 2)
		mean += xs[i]
	}
	mean /= float64(len(xs))
	out, err := Smooth(xs, 50)
	if err != nil {
		t.Fatal(err)
	}
	var sm float64
	for _, v := range out {
		sm += v
	}
	sm /= float64(len(out))
	if !mathx.AlmostEqual(sm, mean, 0.02) {
		t.Errorf("smoothed mean %v vs %v", sm, mean)
	}
}

func TestSmoothedForecasterWalkForward(t *testing.T) {
	src := rng.New(13)
	xs := genAR(src, 3, []float64{0.7, 0.2}, 0.2, 1500)
	f := NewWindowedSmoothedForecaster(6, 25, 0)
	fc, err := f.Forecast(xs[:1000], 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(fc) != 30 {
		t.Fatalf("forecast length %d", len(fc))
	}
	for i, v := range fc {
		if v < -10 || v > 20 {
			t.Fatalf("forecast step %d exploded: %v", i, v)
		}
	}
}

func BenchmarkSmooth7200(b *testing.B) {
	src := rng.New(1)
	xs := make([]float64, 7200)
	for i := range xs {
		xs[i] = src.Normal(1, 0.2)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Smooth(xs, 25); err != nil {
			b.Fatal(err)
		}
	}
}
