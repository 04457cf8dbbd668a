package predict

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"tycoongrid/internal/matrix"
	"tycoongrid/internal/rng"
)

// referenceForecast is the one-model forecast the lane kernel replaced, kept
// as the differential oracle: the lag-by-lag autocorrelation sums with a
// modulo on every ring read, a fresh Yule-Walker solve, the shrink, and the
// horizon recurrence iterated over a growing slice. It reads p's ring and
// running sums under p's lock and changes nothing.
func referenceForecast(p *StreamAR, horizon time.Duration) (Forecast, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.requireHistory(); err != nil {
		return Forecast{}, err
	}
	at := func(i int) float64 { return p.buf[(p.head+i)%len(p.buf)] }
	autocorr := func(j int, mu float64) float64 {
		var headSum, tailSum float64
		for i := 0; i < j; i++ {
			headSum += at(i)
			tailSum += at(p.n - 1 - i)
		}
		nj := float64(p.n - j)
		return (p.lagProd[j] - mu*(2*p.sum-headSum-tailSum) + nj*mu*mu) / nj
	}

	const k = DefaultOrder
	mu := p.sum / float64(p.n)
	acf := make([]float64, k+1)
	for j := range acf {
		acf[j] = autocorr(j, mu)
	}
	coeffs := make([]float64, k)
	if acf[0] > 0 {
		alpha, err := matrix.SolveYuleWalker(acf)
		if err != nil {
			return Forecast{}, fmt.Errorf("predict: streaming Yule-Walker solve: %w", err)
		}
		coeffs = alpha
	}

	steps := int(horizon / p.cfg.Step)
	if steps < 1 {
		steps = 1
	}
	if steps > p.n {
		steps = p.n
	}
	var s float64
	for _, a := range coeffs {
		s += math.Abs(a)
	}
	if s > DefaultShrink {
		f := DefaultShrink / s
		shrunk := make([]float64, 0, k)
		for _, a := range coeffs {
			shrunk = append(shrunk, a*f)
		}
		coeffs = shrunk
	}
	var w []float64
	for i := p.n - k; i < p.n; i++ {
		w = append(w, at(i))
	}
	var v float64
	for s := 0; s < steps; s++ {
		v = mu
		n := len(w)
		for j := 1; j <= k; j++ {
			v += coeffs[j-1] * (w[n-j] - mu)
		}
		w = append(w, v)
	}
	mean := p.ref + v
	if mean < 0 {
		mean = 0
	}
	r0 := autocorr(0, mu)
	if r0 < 0 {
		r0 = 0
	}
	return Forecast{Mean: mean, Sigma: math.Sqrt(r0 * float64(p.n) / float64(p.n-1))}, nil
}

// referenceMean folds referenceForecast over models the way ForecastMean
// folds its lanes: in model order, skipping models that cannot forecast.
func referenceMean(models []*StreamAR, horizon time.Duration) (Forecast, error) {
	var meanSum, varSum float64
	ready := 0
	var lastErr error
	for _, m := range models {
		fc, err := referenceForecast(m, horizon)
		if err != nil {
			lastErr = err
			continue
		}
		meanSum += fc.Mean
		varSum += fc.Sigma * fc.Sigma
		ready++
	}
	if ready == 0 {
		if lastErr != nil {
			return Forecast{}, lastErr
		}
		return Forecast{}, fmt.Errorf("%w: no hosts", ErrInsufficientHistory)
	}
	n := float64(ready)
	return Forecast{Mean: meanSum / n, Sigma: math.Sqrt(varSum / n)}, nil
}

// The shapes of history a random model is fed.
const (
	mixedSeries    = iota // priceSeries: mean-reverting with jumps
	walkSeries            // a slow random walk: near-unit-root fits, which shrink
	constantSeries        // one price: every coefficient zero
	seriesKinds
)

// randomModel builds a model of random window (8-600) and feeds it between none and twice its window of one kind of series, so young
// models, models turned over several times and models with too little
// history all occur.
func randomModel(t *testing.T, src *rng.Source) *StreamAR {
	t.Helper()
	window := 8 + src.Intn(593)
	p := newStreamAR(PredictorConfig{Window: window, Step: streamStep})
	n := src.Intn(2*window + 1)
	var xs []float64
	switch src.Intn(seriesKinds) {
	case mixedSeries:
		xs = priceSeries(src, n)
	case walkSeries:
		xs = make([]float64, n)
		x := src.Uniform(0.5, 4)
		for i := range xs {
			x = math.Max(x+src.Normal(0, 0.01), 0.001)
			xs[i] = x
		}
	case constantSeries:
		xs = make([]float64, n)
		c := src.Uniform(0.05, 4)
		for i := range xs {
			xs[i] = c
		}
	}
	feedStream(t, p, xs)
	return p
}

// sameResult reports whether a kernel result equals the oracle's, with ==
// on every float and the same error class.
func sameResult(got Forecast, gotErr error, want Forecast, wantErr error) bool {
	if (gotErr != nil) != (wantErr != nil) {
		return false
	}
	if gotErr != nil {
		return errors.Is(gotErr, ErrInsufficientHistory) == errors.Is(wantErr, ErrInsufficientHistory)
	}
	return got.Mean == want.Mean && got.Sigma == want.Sigma
}

// TestForecastMeanMatchesPerModelReference is the lane kernel's differential
// test: over random partitions of 1-9 models (so groups of four and every
// remainder occur) and horizons from below one step to beyond the window,
// every lane of a multi-lane pass, every one-model Forecast, and the combined
// ForecastMean equal the per-model reference loop with ==. The models cover
// windows 8-600,
// young models whose horizon is clamped to their length beside full ones,
// constant windows, shrunk fits and models with too little history; the test
// fails if any of those never came up.
func TestForecastMeanMatchesPerModelReference(t *testing.T) {
	src := rng.New(20061111)
	horizons := []time.Duration{0, 3 * time.Second, streamStep, 7 * streamStep, 30 * time.Minute, 3 * time.Hour}
	var lanesChecked, multiLane, young, constant, shrunk, short int
	for trial := 0; trial < 400; trial++ {
		models := make([]*StreamAR, 1+src.Intn(9))
		for i := range models {
			models[i] = randomModel(t, src)
		}
		horizon := horizons[src.Intn(len(horizons))]
		if src.Intn(3) == 0 {
			horizon = time.Duration(src.Intn(int(2 * time.Hour)))
		}

		want := make([]Forecast, len(models))
		wantErr := make([]error, len(models))
		for i, m := range models {
			want[i], wantErr[i] = referenceForecast(m, horizon)
		}

		// Every lane of a pass, grouped as ForecastMean groups them: up to
		// four consecutive ready models.
		var g lanes
		var group []int
		flush := func() {
			g.run()
			if g.n > 1 {
				multiLane++
			}
			for l, i := range group {
				if fc := g.forecast(l); !sameResult(fc, nil, want[i], wantErr[i]) {
					t.Fatalf("trial %d, model %d (lane %d of %d, n %d, horizon %v): lane %+v, reference %+v",
						trial, i, l, g.n, models[i].n, horizon, fc, want[i])
				}
				lanesChecked++
			}
			g.n, group = 0, group[:0]
		}
		for i, m := range models {
			if err := g.load(m, horizon); err != nil {
				if !sameResult(Forecast{}, err, want[i], wantErr[i]) {
					t.Fatalf("trial %d, model %d: load %v, reference %+v, %v", trial, i, err, want[i], wantErr[i])
				}
				continue
			}
			if group = append(group, i); g.n == laneWidth {
				flush()
			}
		}
		if g.n > 0 {
			flush()
		}

		for i, m := range models {
			if fc, err := m.Forecast(horizon); !sameResult(fc, err, want[i], wantErr[i]) {
				t.Fatalf("trial %d, model %d: Forecast %+v, %v; reference %+v, %v", trial, i, fc, err, want[i], wantErr[i])
			}
			// Forecast has solved the model: classify what it covered.
			if wantErr[i] != nil {
				short++
				continue
			}
			if m.n < int(horizon/streamStep) {
				young++
			}
			if m.acf[0] <= 0 {
				constant++
			}
			var s float64
			for _, a := range m.model.Coeffs {
				s += math.Abs(a)
			}
			if s > DefaultShrink {
				shrunk++
			}
		}
		got, err := ForecastMean(models, horizon)
		ref, refErr := referenceMean(models, horizon)
		if !sameResult(got, err, ref, refErr) {
			t.Fatalf("trial %d (%d models, horizon %v): ForecastMean %+v, %v; reference %+v, %v",
				trial, len(models), horizon, got, err, ref, refErr)
		}
	}
	t.Logf("%d lanes checked: %d multi-lane passes, %d young, %d constant, %d shrunk, %d short models",
		lanesChecked, multiLane, young, constant, shrunk, short)
	if multiLane == 0 || young == 0 || constant == 0 || shrunk == 0 || short == 0 {
		t.Errorf("a case never came up: %d multi-lane passes, %d young, %d constant, %d shrunk, %d short models",
			multiLane, young, constant, shrunk, short)
	}
}
