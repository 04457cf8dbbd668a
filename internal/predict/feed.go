package predict

import (
	"fmt"
	"math"
	"time"
)

// ForecastMean combines one streaming model per host of a partition into one
// partition-level distribution: the mean of the per-host means, with sigma
// the RMS of the per-host sigmas (the deviation of an average of similar,
// positively correlated host prices — the conservative combination). Each
// model hangs on its host's market as an observer beside the host's price
// ring, so it is updated once per clear and a scheduler reads forecasts
// instead of materializing history slices and refitting per decision.
//
// Models whose history is too short are skipped, exactly as
// pricefeed.MeanHistory skips empty rings; with no ready model the combined
// forecast reports ErrInsufficientHistory. Models are folded in the order
// given, so a caller passing them in a fixed host order gets a deterministic
// result.
//
// The models' recurrences advance together, up to laneWidth per pass of the
// forecast kernel: each model's state is read under its own lock,
// one model at a time, and the iteration runs with no lock held, so a
// ForecastMean may run while another goroutine observes into the models
// (TestForecastMeanConcurrentWithObserve). The result is bit for bit what
// running each model through the kernel alone gives.
func ForecastMean(models []*StreamAR, horizon time.Duration) (Forecast, error) {
	var g lanes
	var meanSum, varSum float64
	ready := 0
	var lastErr error
	for i, m := range models {
		if err := g.load(m, horizon); err != nil {
			lastErr = err
		}
		// A pass runs when the lanes are full, and after the last model.
		if g.n == laneWidth || g.n > 0 && i == len(models)-1 {
			g.run()
			for l := 0; l < g.n; l++ {
				fc := g.forecast(l)
				meanSum += fc.Mean
				varSum += fc.Sigma * fc.Sigma
			}
			ready += g.n
			g.n = 0
		}
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
