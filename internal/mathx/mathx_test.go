package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNormalCDFKnownValues(t *testing.T) {
	cases := []struct {
		x, want float64
	}{
		{0, 0.5},
		{1, 0.8413447460685429},
		{-1, 0.15865525393145707},
		{1.959963984540054, 0.975},
		{-1.959963984540054, 0.025},
		{3, 0.9986501019683699},
		{-3, 0.0013498980316300933},
	}
	for _, c := range cases {
		if got := NormalCDF(c.x); !AlmostEqual(got, c.want, 1e-12) {
			t.Errorf("NormalCDF(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestNormalPDFSymmetricAndPeak(t *testing.T) {
	if got := NormalPDF(0); !AlmostEqual(got, 1/Sqrt2Pi, 1e-15) {
		t.Errorf("NormalPDF(0) = %v", got)
	}
	for _, x := range []float64{0.3, 1.7, 4.2} {
		if NormalPDF(x) != NormalPDF(-x) {
			t.Errorf("PDF not symmetric at %v", x)
		}
	}
}

func TestNormalQuantileKnownValues(t *testing.T) {
	cases := []struct {
		p, want float64
	}{
		{0.5, 0},
		{0.8413447460685429, 1},
		{0.975, 1.959963984540054},
		{0.025, -1.959963984540054},
		{0.99, 2.3263478740408408},
		{0.8, 0.8416212335729143},
		{0.9, 1.2815515655446004},
	}
	for _, c := range cases {
		if got := NormalQuantile(c.p); !AlmostEqual(got, c.want, 1e-9) {
			t.Errorf("NormalQuantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestNormalQuantileRoundTrip(t *testing.T) {
	f := func(raw float64) bool {
		// Map raw into (0.0001, 0.9999).
		p := 0.0001 + 0.9998*(math.Abs(math.Sin(raw)))
		if p <= 0 || p >= 1 {
			return true
		}
		x := NormalQuantile(p)
		return AlmostEqual(NormalCDF(x), p, 1e-10)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNormalQuantileTails(t *testing.T) {
	for _, p := range []float64{1e-10, 1e-6, 1e-3, 0.999, 1 - 1e-6} {
		x := NormalQuantile(p)
		if got := NormalCDF(x); !AlmostEqual(got, p, 1e-12*math.Max(1, 1/p)) {
			t.Errorf("tail p=%v: CDF(Q(p))=%v", p, got)
		}
	}
}

func TestNormalQuantilePanicsOutOfRange(t *testing.T) {
	for _, p := range []float64{0, 1, -0.5, 1.5, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NormalQuantile(%v) did not panic", p)
				}
			}()
			NormalQuantile(p)
		}()
	}
}

func TestBisect(t *testing.T) {
	root, err := Bisect(func(x float64) float64 { return x*x - 2 }, 0, 2, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if !AlmostEqual(root, math.Sqrt2, 1e-10) {
		t.Errorf("root = %v, want sqrt(2)", root)
	}
}

func TestBisectEndpoints(t *testing.T) {
	f := func(x float64) float64 { return x - 1 }
	if r, err := Bisect(f, 1, 5, 1e-9); err != nil || r != 1 {
		t.Errorf("lo endpoint root: %v, %v", r, err)
	}
	if r, err := Bisect(f, -5, 1, 1e-9); err != nil || r != 1 {
		t.Errorf("hi endpoint root: %v, %v", r, err)
	}
}

func TestBisectNoBracket(t *testing.T) {
	_, err := Bisect(func(x float64) float64 { return x*x + 1 }, -1, 1, 1e-9)
	if err != ErrNoBracket {
		t.Errorf("err = %v, want ErrNoBracket", err)
	}
}

func TestWelfordMatchesDirectComputation(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	var mean float64
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	var v float64
	for _, x := range xs {
		v += (x - mean) * (x - mean)
	}
	pv := v / float64(len(xs))
	sv := v / float64(len(xs)-1)
	if !AlmostEqual(w.Mean(), mean, 1e-12) {
		t.Errorf("mean = %v, want %v", w.Mean(), mean)
	}
	if !AlmostEqual(w.Variance(), pv, 1e-12) {
		t.Errorf("variance = %v, want %v", w.Variance(), pv)
	}
	if !AlmostEqual(w.SampleVariance(), sv, 1e-12) {
		t.Errorf("sample variance = %v, want %v", w.SampleVariance(), sv)
	}
	if w.N() != int64(len(xs)) {
		t.Errorf("n = %d", w.N())
	}
}

func TestWelfordEmptyAndSingle(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 || w.StdDev() != 0 {
		t.Error("empty Welford should report zeros")
	}
	w.Add(7)
	if w.Mean() != 7 || w.Variance() != 0 || w.SampleVariance() != 0 {
		t.Error("single-sample Welford should have zero variance")
	}
}

func TestAlmostEqualNaN(t *testing.T) {
	if AlmostEqual(math.NaN(), math.NaN(), 1) {
		t.Error("NaN should never compare equal")
	}
	if AlmostEqual(1, math.NaN(), 1) {
		t.Error("NaN should never compare equal")
	}
}

func BenchmarkNormalQuantile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = NormalQuantile(0.9)
	}
}

func TestStudentTQuantileKnownValues(t *testing.T) {
	// Two-sided 95% critical values t_{0.975,df} from standard tables.
	cases := []struct {
		df   int
		want float64
	}{
		{1, 12.706205},
		{2, 4.302653},
		{3, 3.182446},
		{5, 2.570582},
		{7, 2.364624},
		{10, 2.228139},
		{30, 2.042272},
		{120, 1.979930},
	}
	for _, c := range cases {
		if got := StudentTQuantile(0.975, c.df); !AlmostEqual(got, c.want, 1e-4) {
			t.Errorf("StudentTQuantile(0.975, %d) = %v, want %v", c.df, got, c.want)
		}
	}
	// Off-center probability, exact median, and symmetry.
	if got := StudentTQuantile(0.6, 5); !AlmostEqual(got, 0.267181, 1e-4) {
		t.Errorf("StudentTQuantile(0.6, 5) = %v", got)
	}
	for _, df := range []int{1, 2, 4, 9, 50} {
		if got := StudentTQuantile(0.5, df); got != 0 {
			t.Errorf("median quantile df=%d: %v, want 0", df, got)
		}
		lo, hi := StudentTQuantile(0.1, df), StudentTQuantile(0.9, df)
		if !AlmostEqual(lo, -hi, 1e-9) {
			t.Errorf("df=%d not symmetric: %v vs %v", df, lo, hi)
		}
	}
	// Large df converges to the normal quantile.
	if n, s := NormalQuantile(0.975), StudentTQuantile(0.975, 100000); !AlmostEqual(n, s, 1e-3) {
		t.Errorf("large-df t %v should approach normal %v", s, n)
	}
}

func TestStudentTQuantilePanics(t *testing.T) {
	for _, bad := range []func(){
		func() { StudentTQuantile(0, 5) },
		func() { StudentTQuantile(1, 5) },
		func() { StudentTQuantile(-0.1, 5) },
		func() { StudentTQuantile(0.9, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic on out-of-domain input")
				}
			}()
			bad()
		}()
	}
}
