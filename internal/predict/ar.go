package predict

import (
	"errors"
	"fmt"
	"math"

	"tycoongrid/internal/matrix"
)

// ARModel is an autoregressive model of order k fitted to a price series
// (paper §4.3): x_t - mu = sum_{j=1..k} alpha_j (x_{t-j} - mu) + noise.
type ARModel struct {
	Order  int
	Mu     float64
	Coeffs []float64 // alpha_1..alpha_k
}

// Autocorrelation returns the paper's unbiased sample autocorrelation of the
// centered series at lag k:
//
//	R(k) = 1/(N-|k|) * sum_{n=0}^{N-|k|-1} z_{n+|k|} * z_n,  z = x - mean(x).
func Autocorrelation(xs []float64, k int) (float64, error) {
	if k < 0 {
		k = -k
	}
	n := len(xs)
	if k >= n {
		return 0, fmt.Errorf("predict: lag %d >= series length %d", k, n)
	}
	var mu float64
	for _, x := range xs {
		mu += x
	}
	mu /= float64(n)
	var s float64
	for i := 0; i < n-k; i++ {
		s += (xs[i+k] - mu) * (xs[i] - mu)
	}
	return s / float64(n-k), nil
}

// FitAR fits an AR(k) model to xs by solving the Yule-Walker equations
// L*alpha = r, where L is the k x k Toeplitz matrix L[i][j] = R(i-j) and
// r_i = R(i+1), via the Levinson-Durbin recursion.
func FitAR(xs []float64, k int) (*ARModel, error) {
	if k < 1 {
		return nil, fmt.Errorf("predict: AR order %d, want >= 1", k)
	}
	if len(xs) < 2*k+1 {
		return nil, fmt.Errorf("predict: series length %d too short for AR(%d)", len(xs), k)
	}
	var mu float64
	for i, x := range xs {
		// A single NaN or Inf silently poisons every autocorrelation and the
		// Toeplitz solve downstream; reject it at the door.
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("predict: non-finite value %v at index %d", x, i)
		}
		mu += x
	}
	mu /= float64(len(xs))

	acf := make([]float64, k+1)
	for i := range acf {
		var err error
		if acf[i], err = Autocorrelation(xs, i); err != nil {
			return nil, err
		}
	}
	if acf[0] == 0 {
		// Constant series: the best AR prediction is the mean itself.
		return &ARModel{Order: k, Mu: mu, Coeffs: make([]float64, k)}, nil
	}
	alpha, err := matrix.SolveYuleWalker(acf)
	if err != nil {
		return nil, fmt.Errorf("predict: Yule-Walker solve: %w", err)
	}
	return &ARModel{Order: k, Mu: mu, Coeffs: alpha}, nil
}

// ForecastNext predicts the value following history:
// x_{N+1} = mu + sum_j alpha_j (x_{N+1-j} - mu).
func (m *ARModel) ForecastNext(history []float64) (float64, error) {
	if len(history) < m.Order {
		return 0, fmt.Errorf("predict: need %d history points, have %d", m.Order, len(history))
	}
	v := m.Mu
	n := len(history)
	for j := 1; j <= m.Order; j++ {
		v += m.Coeffs[j-1] * (history[n-j] - m.Mu)
	}
	return v, nil
}

// Forecast iterates ForecastNext steps times, feeding each prediction back
// as history — the h-step-ahead forecast of Figure 4 (one hour ahead = 360
// ten-second steps).
func (m *ARModel) Forecast(history []float64, steps int) ([]float64, error) {
	if steps < 1 {
		return nil, errors.New("predict: steps must be >= 1")
	}
	work := make([]float64, len(history), len(history)+steps)
	copy(work, history)
	out := make([]float64, 0, steps)
	for i := 0; i < steps; i++ {
		v, err := m.ForecastNext(work)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
		work = append(work, v)
	}
	return out, nil
}

// Shrink rescales the coefficients so that sum |alpha_j| <= target,
// stabilizing near-unit-root fits (spot prices are strongly persistent, so
// raw Yule-Walker solutions often land a hair above 1 and would explode
// when iterated hundreds of steps). A model already inside the bound is
// unchanged.
func (m *ARModel) Shrink(target float64) {
	if target <= 0 {
		return
	}
	var s float64
	for _, a := range m.Coeffs {
		s += math.Abs(a)
	}
	if s <= target {
		return
	}
	f := target / s
	for i := range m.Coeffs {
		m.Coeffs[i] *= f
	}
}

// PredictionError is the paper's epsilon: for aligned prediction and
// measurement series, epsilon = (1/n) * sum_i sigma_i / mu_d, where sigma_i
// is the standard deviation of the i-th (prediction, measurement) pair and
// mu_d the mean of the measured validation series. For a pair (a, b) the
// population standard deviation is |a-b|/2.
func PredictionError(predicted, measured []float64) (float64, error) {
	if len(predicted) != len(measured) {
		return 0, fmt.Errorf("predict: series lengths %d vs %d", len(predicted), len(measured))
	}
	if len(measured) == 0 {
		return 0, errors.New("predict: empty validation series")
	}
	var mu float64
	for _, m := range measured {
		mu += m
	}
	mu /= float64(len(measured))
	if mu == 0 {
		return 0, errors.New("predict: zero-mean measurement series")
	}
	var s float64
	for i := range predicted {
		s += math.Abs(predicted[i]-measured[i]) / 2
	}
	return s / float64(len(predicted)) / mu, nil
}

// Persistence is the paper's benchmark model: it always predicts that the
// current price will persist.
type Persistence struct{}

// Forecast repeats the last observed value steps times.
func (Persistence) Forecast(history []float64, steps int) ([]float64, error) {
	if len(history) == 0 {
		return nil, errors.New("predict: empty history")
	}
	if steps < 1 {
		return nil, errors.New("predict: steps must be >= 1")
	}
	out := make([]float64, steps)
	last := history[len(history)-1]
	for i := range out {
		out[i] = last
	}
	return out, nil
}

// Forecaster is implemented by ARModel and Persistence; the Figure 4 harness
// evaluates both through this interface.
type Forecaster interface {
	Forecast(history []float64, steps int) ([]float64, error)
}

// HorizonErrors walks a validation series with a sliding origin: at each
// origin i it forecasts `horizon` steps from series[:i] and compares the
// final forecast value against series[i+horizon-1]. It returns the aligned
// (predicted, measured) slices ready for PredictionError.
func HorizonErrors(f Forecaster, series []float64, start, horizon, stride int) (pred, meas []float64, err error) {
	if start <= 0 || horizon < 1 || stride < 1 {
		return nil, nil, errors.New("predict: bad horizon-walk parameters")
	}
	for i := start; i+horizon <= len(series); i += stride {
		fc, err := f.Forecast(series[:i], horizon)
		if err != nil {
			return nil, nil, err
		}
		pred = append(pred, fc[horizon-1])
		meas = append(meas, series[i+horizon-1])
	}
	if len(pred) == 0 {
		return nil, nil, errors.New("predict: validation window too short")
	}
	return pred, meas, nil
}
