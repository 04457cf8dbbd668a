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
func ForecastMean(models []StreamingPredictor, horizon time.Duration) (Forecast, error) {
	var meanSum, varSum float64
	ready := 0
	var lastErr error
	for _, sp := range models {
		fc, err := sp.Forecast(horizon)
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
