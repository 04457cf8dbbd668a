package predict

import (
	"errors"
	"fmt"

	"tycoongrid/internal/matrix"
)

// Smooth applies a discrete cubic smoothing spline (Whittaker-Henderson
// graduation) to an equally spaced series: it returns the g minimizing
//
//	sum_i (g_i - x_i)^2 + lambda * sum_i (g_{i-1} - 2 g_i + g_{i+1})^2,
//
// i.e. the solution of (I + lambda*D'D) g = x with D the second-difference
// operator. This is the discretized form of the cubic smoothing spline the
// paper applies before fitting the AR model, which "had problems predicting
// future prices due to sharp price drops when batch jobs completed" (§5.4).
// Larger lambda smooths harder; lambda = 0 returns the input.
func Smooth(xs []float64, lambda float64) ([]float64, error) {
	n := len(xs)
	if n == 0 {
		return nil, errors.New("predict: empty series")
	}
	if lambda < 0 {
		return nil, fmt.Errorf("predict: negative smoothing parameter %v", lambda)
	}
	out := make([]float64, n)
	if lambda == 0 || n < 3 {
		copy(out, xs)
		return out, nil
	}
	// Build I + lambda*D'D, a symmetric positive-definite pentadiagonal
	// matrix. D is (n-2) x n with rows (1, -2, 1).
	a, err := matrix.NewSymBanded(n, 2)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		if err := a.Add(i, i, 1); err != nil {
			return nil, err
		}
	}
	for r := 0; r < n-2; r++ {
		// Row r of D touches columns r, r+1, r+2 with weights 1, -2, 1.
		w := [3]float64{1, -2, 1}
		for p := 0; p < 3; p++ {
			for q := p; q < 3; q++ {
				if err := a.Add(r+p, r+q, lambda*w[p]*w[q]); err != nil {
					return nil, err
				}
			}
		}
	}
	g, err := a.SolveSPD(xs)
	if err != nil {
		return nil, fmt.Errorf("predict: spline solve: %w", err)
	}
	return g, nil
}

// smoothedForecaster wraps an AR model so that every forecast first smooths
// its history, matching how the model was fitted.
type smoothedForecaster struct {
	k      int
	lambda float64
	window int
}

// NewWindowedSmoothedForecaster returns a Forecaster that, at each forecast
// origin, smooths the trailing `window` points of history (all of it when
// window is 0) with lambda and fits a fresh AR(k) to them — the honest
// walk-forward evaluation used by the Figure 4 harness (no look-ahead into
// the validation interval). The window makes the model's mean track the
// current price regime instead of the all-time average — important for spot
// prices whose level shifts as batches arrive and complete.
func NewWindowedSmoothedForecaster(k int, lambda float64, window int) Forecaster {
	return &smoothedForecaster{k: k, lambda: lambda, window: window}
}

// Forecast implements Forecaster.
func (s *smoothedForecaster) Forecast(history []float64, steps int) ([]float64, error) {
	if s.window > 0 && len(history) > s.window {
		history = history[len(history)-s.window:]
	}
	sm, err := Smooth(history, s.lambda)
	if err != nil {
		return nil, err
	}
	m, err := FitAR(sm, s.k)
	if err != nil {
		return nil, err
	}
	// Spot-price fits are often marginally explosive; shrink rather than
	// discard, so the AR structure still contributes to the forecast.
	m.Shrink(0.995)
	return m.Forecast(sm, steps)
}
