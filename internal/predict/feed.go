package predict

import (
	"fmt"
	"math"
	"sync"
	"time"

	"tycoongrid/internal/pricefeed"
)

// FeedForecasts manages one streaming predictor per host, attached as a sink
// to a pricefeed.Hub: predictor state lives with the host's ring and is
// updated once per market clear, so a scheduler reads forecasts through a
// handle instead of materializing history slices and refitting per decision.
//
// Safe for concurrent use: the hub's observe path feeds the predictors while
// strategies read forecasts.
type FeedForecasts struct {
	hub  *pricefeed.Hub
	name string
	cfg  PredictorConfig

	mu     sync.Mutex
	byHost map[string]StreamingPredictor
}

// hubSink adapts a StreamingPredictor to the pricefeed.Sink signature.
type hubSink struct{ sp StreamingPredictor }

func (s hubSink) Observe(at time.Time, price float64) error {
	return s.sp.Observe(price, at)
}

// AttachHub builds a FeedForecasts over hub using the named streaming
// predictor, eagerly attaching one per listed host (more are attached lazily
// on first Host call). The name must be in the streaming registry.
func AttachHub(hub *pricefeed.Hub, name string, cfg PredictorConfig, hostIDs ...string) (*FeedForecasts, error) {
	if hub == nil {
		return nil, fmt.Errorf("predict: AttachHub: nil hub")
	}
	if _, err := NewStreaming(name, cfg); err != nil {
		return nil, err
	}
	f := &FeedForecasts{hub: hub, name: name, cfg: cfg, byHost: make(map[string]StreamingPredictor)}
	for _, id := range hostIDs {
		f.Host(id)
	}
	return f, nil
}

// Host returns hostID's streaming predictor, creating and attaching it to
// the hub on first use.
func (f *FeedForecasts) Host(hostID string) StreamingPredictor {
	f.mu.Lock()
	defer f.mu.Unlock()
	if sp, ok := f.byHost[hostID]; ok {
		return sp
	}
	sp, _ := NewStreaming(f.name, f.cfg) // name validated in AttachHub
	f.hub.Attach(hostID, hubSink{sp})
	f.byHost[hostID] = sp
	return sp
}

// ForecastHost returns one host's forecast over the horizon.
func (f *FeedForecasts) ForecastHost(hostID string, horizon time.Duration) (Forecast, error) {
	return f.Host(hostID).Forecast(horizon)
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
