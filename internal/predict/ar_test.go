package predict

import (
	"math"
	"testing"

	"tycoongrid/internal/mathx"
	"tycoongrid/internal/rng"
)

// genAR synthesizes an AR process x_t = mu + sum_j alpha_j (x_{t-j}-mu) + noise.
func genAR(src *rng.Source, mu float64, alpha []float64, noise float64, n int) []float64 {
	k := len(alpha)
	xs := make([]float64, n)
	for i := 0; i < k; i++ {
		xs[i] = mu + src.Normal(0, noise)
	}
	for i := k; i < n; i++ {
		v := mu
		for j := 1; j <= k; j++ {
			v += alpha[j-1] * (xs[i-j] - mu)
		}
		xs[i] = v + src.Normal(0, noise)
	}
	return xs
}

func TestAutocorrelationKnownSeries(t *testing.T) {
	// Alternating series around zero: R(0) = 1, R(1) ~ -1.
	xs := []float64{1, -1, 1, -1, 1, -1, 1, -1}
	r0, err := Autocorrelation(xs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !mathx.AlmostEqual(r0, 1, 1e-12) {
		t.Errorf("R(0) = %v", r0)
	}
	r1, _ := Autocorrelation(xs, 1)
	if !mathx.AlmostEqual(r1, -1, 1e-12) {
		t.Errorf("R(1) = %v", r1)
	}
	// Lag symmetry.
	rm1, _ := Autocorrelation(xs, -1)
	if rm1 != r1 {
		t.Errorf("R(-1) = %v != R(1) = %v", rm1, r1)
	}
	if _, err := Autocorrelation(xs, 8); err == nil {
		t.Error("lag >= N accepted")
	}
}

func TestFitARRecoversCoefficients(t *testing.T) {
	src := rng.New(42)
	alpha := []float64{0.6, 0.25}
	xs := genAR(src, 5, alpha, 0.1, 60000)
	m, err := FitAR(xs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !mathx.AlmostEqual(m.Mu, 5, 0.1) {
		t.Errorf("mu = %v", m.Mu)
	}
	for j, want := range alpha {
		if !mathx.AlmostEqual(m.Coeffs[j], want, 0.03) {
			t.Errorf("alpha_%d = %v, want %v", j+1, m.Coeffs[j], want)
		}
	}
}

func TestFitARValidation(t *testing.T) {
	xs := []float64{1, 2, 3}
	if _, err := FitAR(xs, 0); err == nil {
		t.Error("order 0 accepted")
	}
	if _, err := FitAR(xs, 2); err == nil {
		t.Error("short series accepted")
	}
}

func TestFitARConstantSeries(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = 7
	}
	m, err := FitAR(xs, 3)
	if err != nil {
		t.Fatal(err)
	}
	v, err := m.ForecastNext(xs)
	if err != nil {
		t.Fatal(err)
	}
	if !mathx.AlmostEqual(v, 7, 1e-9) {
		t.Errorf("constant forecast = %v", v)
	}
}

func TestForecastConvergesToMean(t *testing.T) {
	// For a stable AR(1), iterated forecasts decay geometrically to mu.
	m := &ARModel{Order: 1, Mu: 10, Coeffs: []float64{0.5}}
	fc, err := m.Forecast([]float64{10, 10, 18}, 20)
	if err != nil {
		t.Fatal(err)
	}
	if !mathx.AlmostEqual(fc[0], 14, 1e-9) { // 10 + 0.5*8
		t.Errorf("step 1 = %v", fc[0])
	}
	if !mathx.AlmostEqual(fc[1], 12, 1e-9) {
		t.Errorf("step 2 = %v", fc[1])
	}
	if math.Abs(fc[19]-10) > 1e-4 {
		t.Errorf("long forecast %v has not converged to mu", fc[19])
	}
}

func TestForecastValidation(t *testing.T) {
	m := &ARModel{Order: 3, Mu: 0, Coeffs: []float64{0.1, 0.1, 0.1}}
	if _, err := m.ForecastNext([]float64{1, 2}); err == nil {
		t.Error("short history accepted")
	}
	if _, err := m.Forecast([]float64{1, 2, 3}, 0); err == nil {
		t.Error("zero steps accepted")
	}
}

func TestPredictionErrorKnownValue(t *testing.T) {
	// pairs (2,4), (4,4): sigma = 1, 0; mu_d = 4; eps = (1+0)/2/4 = 0.125.
	eps, err := PredictionError([]float64{2, 4}, []float64{4, 4})
	if err != nil {
		t.Fatal(err)
	}
	if !mathx.AlmostEqual(eps, 0.125, 1e-12) {
		t.Errorf("eps = %v", eps)
	}
	if _, err := PredictionError([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := PredictionError(nil, nil); err == nil {
		t.Error("empty series accepted")
	}
	if _, err := PredictionError([]float64{1, -1}, []float64{1, -1}); err == nil {
		t.Error("zero-mean measurements accepted")
	}
	// Perfect prediction has zero error.
	eps, _ = PredictionError([]float64{3, 3}, []float64{3, 3})
	if eps != 0 {
		t.Errorf("perfect eps = %v", eps)
	}
}

func TestPersistence(t *testing.T) {
	p := Persistence{}
	fc, err := p.Forecast([]float64{1, 2, 9}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range fc {
		if v != 9 {
			t.Errorf("persistence forecast = %v", fc)
		}
	}
	if _, err := p.Forecast(nil, 1); err == nil {
		t.Error("empty history accepted")
	}
}

// TestARBeatsPersistenceOnARData is the Figure 4 shape: on mean-reverting
// price data, the AR model's one-hour-ahead epsilon is below the
// persistence benchmark's.
func TestARBeatsPersistenceOnARData(t *testing.T) {
	src := rng.New(7)
	xs := genAR(src, 2.0, []float64{0.85}, 0.3, 4000)
	// Keep prices positive like real spot prices.
	for i, v := range xs {
		if v < 0.01 {
			xs[i] = 0.01
		}
	}
	fit := len(xs) / 2
	m, err := FitAR(xs[:fit], 6)
	if err != nil {
		t.Fatal(err)
	}
	const horizon = 10
	predAR, measAR, err := HorizonErrors(m, xs, fit, horizon, 7)
	if err != nil {
		t.Fatal(err)
	}
	predP, measP, err := HorizonErrors(Persistence{}, xs, fit, horizon, 7)
	if err != nil {
		t.Fatal(err)
	}
	epsAR, err := PredictionError(predAR, measAR)
	if err != nil {
		t.Fatal(err)
	}
	epsP, err := PredictionError(predP, measP)
	if err != nil {
		t.Fatal(err)
	}
	if epsAR >= epsP {
		t.Errorf("AR eps %v >= persistence eps %v", epsAR, epsP)
	}
}

func TestHorizonErrorsValidation(t *testing.T) {
	if _, _, err := HorizonErrors(Persistence{}, []float64{1, 2, 3}, 0, 1, 1); err == nil {
		t.Error("start 0 accepted")
	}
	if _, _, err := HorizonErrors(Persistence{}, []float64{1, 2}, 1, 5, 1); err == nil {
		t.Error("window too short accepted")
	}
}

func BenchmarkFitAR6(b *testing.B) {
	src := rng.New(1)
	xs := genAR(src, 1, []float64{0.7, 0.1}, 0.1, 7200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FitAR(xs, 6); err != nil {
			b.Fatal(err)
		}
	}
}
