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

// TestNewPredictorBuildsOnlyAR checks the batch constructor: "ar" is the one
// name, and a fresh model refuses to predict rather than guess.
func TestNewPredictorBuildsOnlyAR(t *testing.T) {
	for _, name := range []string{"normal", "window", "streaming-ar", ""} {
		if _, err := NewPredictor(name, PredictorConfig{}); err == nil {
			t.Errorf("NewPredictor(%q) accepted", name)
		}
	}
	p, err := NewPredictor("ar", PredictorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Predict(time.Hour); !errors.Is(err, ErrInsufficientHistory) {
		t.Errorf("empty predict err = %v", err)
	}
}

// TestPredictorsRejectBadObservations checks that the batch reference and the
// streaming model apply one boundary: each poisoned sample is refused with
// the pricefeed error a ring gives it, and refusals leave the model usable.
func TestPredictorsRejectBadObservations(t *testing.T) {
	models := map[string]func(at time.Time, price float64) error{}
	batch, err := NewPredictor("ar", PredictorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	models["ar"] = batch.Observe
	stream, err := NewStreaming(StreamingAR, PredictorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	models[StreamingAR] = func(at time.Time, price float64) error { return stream.Observe(price, at) }

	for _, name := range []string{"ar", StreamingAR} {
		observe := models[name]
		t.Run(name, func(t *testing.T) {
			if err := observe(pt0, 1); err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct {
				at    time.Time
				price float64
				want  error
			}{
				{pt0.Add(time.Second), math.NaN(), pricefeed.ErrNonFinite},
				{pt0.Add(time.Second), math.Inf(1), pricefeed.ErrNonFinite},
				{pt0.Add(time.Second), -0.5, pricefeed.ErrNegative},
				{pt0.Add(-time.Second), 1, pricefeed.ErrOutOfOrder},
				{pt0, 1, pricefeed.ErrDuplicate},
			} {
				if err := observe(c.at, c.price); !errors.Is(err, c.want) {
					t.Errorf("Observe(%v, %v) = %v, want %v", c.at, c.price, err, c.want)
				}
			}
			if err := observe(pt0.Add(time.Minute), 1.1); err != nil {
				t.Errorf("model poisoned by rejected samples: %v", err)
			}
		})
	}
}

func TestForecastQuantile(t *testing.T) {
	f := Forecast{Mean: 5, Sigma: 2}
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
	for _, p := range []float64{0, 1} {
		if _, err := f.Quantile(p); err == nil {
			t.Errorf("quantile %v accepted", p)
		}
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

func TestARPredictorForecastsTrend(t *testing.T) {
	p, _ := NewPredictor("ar", PredictorConfig{Window: 64, Step: 10 * time.Second})
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
	pc, _ := NewPredictor("ar", PredictorConfig{Window: 32})
	feed(t, pc, make([]float64, 20), 10*time.Second) // all zeros
	fc, err := pc.Predict(time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if fc.Mean != 0 {
		t.Errorf("constant forecast = %v, want 0", fc.Mean)
	}
}
