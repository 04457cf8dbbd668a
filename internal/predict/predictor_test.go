package predict

import (
	"errors"
	"math"
	"testing"
	"time"

	"tycoongrid/internal/pricefeed"
)

var pt0 = time.Date(2006, 1, 1, 0, 0, 0, 0, time.UTC)

func feed(t *testing.T, p Predictor, vs []float64, step time.Duration) {
	t.Helper()
	for i, v := range vs {
		if err := p.Observe(pt0.Add(time.Duration(i)*step), v); err != nil {
			t.Fatalf("observe %d: %v", i, err)
		}
	}
}

func TestPredictorRegistry(t *testing.T) {
	names := PredictorNames()
	// Exactly the reference models: the streaming families have their own
	// registry (NewStreaming) and no entry here.
	want := []string{"ar", "normal", "window"}
	if len(names) != len(want) {
		t.Fatalf("names = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("names = %v, want %v", names, want)
		}
	}
	for _, n := range names {
		p, err := NewPredictor(n, PredictorConfig{})
		if err != nil {
			t.Fatalf("%s: %v", n, err)
		}
		if p.Name() != n {
			t.Errorf("predictor %q reports name %q", n, p.Name())
		}
		// Fresh predictors must refuse to predict rather than guess.
		if _, err := p.Predict(time.Hour); !errors.Is(err, ErrInsufficientHistory) {
			t.Errorf("%s: empty predict err = %v", n, err)
		}
	}
	if _, err := NewPredictor("oracle", PredictorConfig{}); err == nil {
		t.Error("unknown predictor accepted")
	}
}

func TestPredictorsRejectBadObservations(t *testing.T) {
	for _, name := range PredictorNames() {
		p, err := NewPredictor(name, PredictorConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Observe(pt0, math.NaN()); !errors.Is(err, pricefeed.ErrNonFinite) {
			t.Errorf("%s: NaN err = %v", name, err)
		}
		if err := p.Observe(pt0, 1); err != nil {
			t.Fatal(err)
		}
		if err := p.Observe(pt0.Add(-time.Second), 1); !errors.Is(err, pricefeed.ErrOutOfOrder) {
			t.Errorf("%s: out-of-order err = %v", name, err)
		}
	}
}

func TestNormalPredictorMoments(t *testing.T) {
	p, _ := NewPredictor("normal", PredictorConfig{})
	vs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	feed(t, p, vs, 10*time.Second)
	f, err := p.Predict(time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.Mean-5) > 1e-12 {
		t.Errorf("mean = %v, want 5", f.Mean)
	}
	// Sample (n-1) deviation of the classic dataset.
	if want := math.Sqrt(32.0 / 7.0); math.Abs(f.Sigma-want) > 1e-12 {
		t.Errorf("sigma = %v, want %v", f.Sigma, want)
	}
	med, err := f.Quantile(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(med-f.Mean) > 1e-9 {
		t.Errorf("median = %v, want mean %v", med, f.Mean)
	}
	hi, _ := f.Quantile(0.95)
	lo, _ := f.Quantile(0.05)
	if !(lo < med && med < hi) {
		t.Errorf("quantiles not ordered: %v %v %v", lo, med, hi)
	}
	if _, err := f.Quantile(0); err == nil {
		t.Error("quantile 0 accepted")
	}
}

func TestForecastQuantileClipsAtZero(t *testing.T) {
	f := Forecast{Mean: 0.1, Sigma: 10}
	q, err := f.Quantile(0.01)
	if err != nil {
		t.Fatal(err)
	}
	if q != 0 {
		t.Errorf("low quantile = %v, want clipped 0", q)
	}
}

func TestWindowPredictorTracksRegime(t *testing.T) {
	p, _ := NewPredictor("window", PredictorConfig{Window: 4})
	// Old cheap regime followed by an expensive one; the window must only
	// see the new regime.
	vs := []float64{1, 1, 1, 1, 1, 9, 9, 9, 9}
	feed(t, p, vs, 10*time.Second)
	f, err := p.Predict(time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if f.Mean != 9 {
		t.Errorf("windowed mean = %v, want 9", f.Mean)
	}
	if f.Sigma != 0 {
		t.Errorf("windowed sigma = %v, want 0", f.Sigma)
	}
}

func TestARPredictorForecastsTrend(t *testing.T) {
	p, _ := NewPredictor("ar", PredictorConfig{Window: 64, Order: 2, Lambda: 0, Step: 10 * time.Second})
	// A rising ramp: the fitted AR is strongly persistent, so the short-term
	// forecast stays near the current (high) price — well above the window
	// mean a naive average would predict — while longer horizons revert
	// toward the mean, never below it.
	vs := make([]float64, 40)
	for i := range vs {
		vs[i] = 1 + 0.1*float64(i)
	}
	feed(t, p, vs, 10*time.Second)
	f1, err := p.Predict(10 * time.Second) // 1 step ahead
	if err != nil {
		t.Fatal(err)
	}
	f20, err := p.Predict(200 * time.Second) // 20 steps ahead
	if err != nil {
		t.Fatal(err)
	}
	mu, _ := meanStd(vs)
	if f1.Mean <= f20.Mean || f20.Mean <= mu {
		t.Errorf("AR forecasts not persistent-then-reverting: 1-step %v, 20-step %v, mean %v",
			f1.Mean, f20.Mean, mu)
	}
	if last := vs[len(vs)-1]; f1.Mean < 0.8*last {
		t.Errorf("1-step forecast %v lost the current price level %v", f1.Mean, last)
	}
	// Constant series: forecast equals the constant.
	pc, _ := NewPredictor("ar", PredictorConfig{Window: 32, Order: 3, Lambda: 5})
	feed(t, pc, make([]float64, 20), 10*time.Second) // all zeros
	fc, err := pc.Predict(time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if fc.Mean != 0 {
		t.Errorf("constant forecast = %v, want 0", fc.Mean)
	}
}

func TestRegisterPredictorGuards(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	mustPanic("empty name", func() { RegisterPredictor("", func(PredictorConfig) Predictor { return nil }) })
	mustPanic("duplicate", func() { RegisterPredictor("ar", func(PredictorConfig) Predictor { return nil }) })
}
