package predict

import (
	"fmt"
	"math"
	"time"

	"tycoongrid/internal/pricefeed"
)

// FeedForecasts holds one streaming AR model per host, each attached as a
// sink to a pricefeed.Hub: a model's state lives with its host's ring and is
// updated once per market clear, so a scheduler reads forecasts through a
// handle instead of materializing history slices and refitting per decision.
//
// The host set is fixed by AttachHub, so the map is only read afterwards.
// Each model guards its own state: the hub's observe path feeds it while
// strategies read forecasts.
type FeedForecasts struct {
	byHost map[string]*streamAR
}

// hubSink adapts a streaming model to the pricefeed.Sink signature.
type hubSink struct{ sp *streamAR }

func (s hubSink) Observe(at time.Time, price float64) error {
	return s.sp.Observe(price, at)
}

// AttachHub attaches one streaming AR model, shaped by cfg, to each listed
// host's stream on hub.
func AttachHub(hub *pricefeed.Hub, cfg PredictorConfig, hostIDs ...string) *FeedForecasts {
	f := &FeedForecasts{byHost: make(map[string]*streamAR, len(hostIDs))}
	for _, id := range hostIDs {
		sp := newStreamAR(cfg)
		hub.Attach(id, hubSink{sp})
		f.byHost[id] = sp
	}
	return f
}

// ForecastHost returns one host's forecast over the horizon.
func (f *FeedForecasts) ForecastHost(hostID string, horizon time.Duration) (Forecast, error) {
	sp, ok := f.byHost[hostID]
	if !ok {
		return Forecast{}, fmt.Errorf("predict: host %q has no attached model", hostID)
	}
	return sp.Forecast(horizon)
}

// ForecastMean combines the hosts' forecasts into one partition-level
// distribution: the mean of the per-host means, with sigma the RMS of the
// per-host sigmas (the deviation of an average of similar, positively
// correlated host prices — the conservative combination). Hosts whose
// predictors lack history are skipped, exactly as MeanHistory skips hosts
// without samples; with no ready host the combined forecast reports
// ErrInsufficientHistory. Hosts are folded in the order given, so callers
// passing a sorted list get a deterministic result.
func (f *FeedForecasts) ForecastMean(hostIDs []string, horizon time.Duration) (Forecast, error) {
	var meanSum, varSum float64
	ready := 0
	var lastErr error
	for _, id := range hostIDs {
		fc, err := f.ForecastHost(id, horizon)
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
