package predict

import (
	"fmt"
	"math"
	"time"

	"tycoongrid/internal/mathx"
	"tycoongrid/internal/pricefeed"
	"tycoongrid/internal/tsdb"
)

// This file holds the package's price-model interface and the batch AR(k)
// reference of §4.3/§5.4. The model a running world reads is its streaming
// twin (streaming.go); the batch form remains the reference it is checked
// against and the fallback of a strategy candidate that carries a history
// instead of a forecast handle. Predict collapses the model's view of the
// horizon into a mean+quantile distribution.

// Forecast is a price distribution over a horizon, summarized by its first
// two moments. Quantile treats it as Normal(Mean, Sigma^2), matching the
// paper's §4.2 guarantee computation.
type Forecast struct {
	Mean  float64
	Sigma float64
}

// Quantile returns the p-quantile of the forecast price, clipped at zero
// (spot prices cannot be negative). p must be in (0, 1).
func (f Forecast) Quantile(p float64) (float64, error) {
	if p <= 0 || p >= 1 {
		return 0, fmt.Errorf("predict: quantile %v outside (0,1)", p)
	}
	q := f.Mean + f.Sigma*mathx.NormalQuantile(p)
	if q < 0 {
		q = 0
	}
	return q, nil
}

// Predictor is the batch price model: feed it spot-price observations, ask
// it for the price distribution over a horizon, and it refits from its
// window on every Predict. It rejects invalid observations (non-finite,
// out-of-order) at the boundary, like FitAR, and returns an error from
// Predict until it has enough history. Not safe for concurrent use.
type Predictor interface {
	Observe(at time.Time, price float64) error
	Predict(horizon time.Duration) (Forecast, error)
}

// PredictorConfig shapes an AR predictor, batch or streaming.
type PredictorConfig struct {
	// Window is the trailing observation count the model keeps
	// (<= 0 means DefaultWindow).
	Window int
	// Step is the expected observation spacing, used to convert a horizon
	// into forecast steps (<= 0 means the paper's 10 s reallocation period).
	Step time.Duration
}

// Model defaults. Every model is AR(DefaultOrder), fitted to its raw window.
const (
	DefaultWindow = 360 // one hour of 10 s ticks
	DefaultOrder  = 6   // the paper's AR(6)
	DefaultStep   = 10 * time.Second
)

func (c PredictorConfig) withDefaults() PredictorConfig {
	if c.Window <= 0 {
		c.Window = DefaultWindow
	}
	if c.Step <= 0 {
		c.Step = DefaultStep
	}
	return c
}

// NewPredictor builds the batch AR reference model, whose one name is "ar".
func NewPredictor(name string, cfg PredictorConfig) (Predictor, error) {
	if name != "ar" {
		return nil, fmt.Errorf("predict: unknown predictor %q (want \"ar\")", name)
	}
	cfg = cfg.withDefaults()
	return &arPredictor{cfg: cfg, ring: tsdb.NewRing(cfg.Window)}, nil
}

// ErrInsufficientHistory is wrapped by Predict when the model has not seen
// enough observations yet; callers fall back to the current price.
var ErrInsufficientHistory = fmt.Errorf("predict: insufficient history")

// arPredictor is the §4.3 model: fit AR(DefaultOrder) to the trailing window,
// unsmoothed as the streaming model's fit is, and iterate the forecast
// horizon/step steps ahead. Sigma is the window's
// sample deviation — the market's recent variability around the AR path.
type arPredictor struct {
	cfg  PredictorConfig
	ring *tsdb.Ring
}

func (p *arPredictor) Observe(at time.Time, price float64) error {
	last, held := p.ring.Latest()
	if err := pricefeed.Check(price, at, time.Unix(0, last.T), held); err != nil {
		return err
	}
	p.ring.AppendNanos(at.UnixNano(), price)
	return nil
}

func (p *arPredictor) Predict(horizon time.Duration) (Forecast, error) {
	vs := tsdb.Values(p.ring.Since(math.MinInt64))
	if need := 2*DefaultOrder + 1; len(vs) < need {
		return Forecast{}, fmt.Errorf("%w: AR(%d) has %d points, want >= %d",
			ErrInsufficientHistory, DefaultOrder, len(vs), need)
	}
	steps := int(horizon / p.cfg.Step)
	if steps < 1 {
		steps = 1
	}
	// Iterating further than the window itself extrapolates pure model bias;
	// clamp so a huge horizon degrades to the window-length forecast.
	if steps > len(vs) {
		steps = len(vs)
	}
	fc, err := NewWindowedSmoothedForecaster(DefaultOrder, 0, p.cfg.Window).Forecast(vs, steps)
	if err != nil {
		return Forecast{}, err
	}
	mean := fc[len(fc)-1]
	if mean < 0 {
		mean = 0 // an explosive fit can dip below zero; prices cannot
	}
	_, sigma := meanStd(vs)
	return Forecast{Mean: mean, Sigma: sigma}, nil
}

// meanStd returns the sample mean and standard deviation of vs (len >= 2).
func meanStd(vs []float64) (mu, sigma float64) {
	for _, v := range vs {
		mu += v
	}
	mu /= float64(len(vs))
	var s2 float64
	for _, v := range vs {
		s2 += (v - mu) * (v - mu)
	}
	return mu, math.Sqrt(s2 / float64(len(vs)-1))
}
