// Package strategy implements pluggable partition-selection policies for the
// meta scheduler (paper §4): given the candidate partitions' current spot
// prices and recent price history, pick where the next job should run.
//
// The paper's experiments compare reacting to the current price against
// scheduling on *predicted* prices (§4.2-4.3) and against a Markowitz
// portfolio over partitions (§4.4). Each of those policies is a Strategy
// here; the meta scheduler holds one Strategy value and delegates every
// placement decision to it, so adding a policy never touches the scheduler.
//
// Strategies may be stateful (round-robin tie counters, portfolio smoothing
// credits) and are not safe for concurrent use; the meta scheduler serializes
// calls.
package strategy

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"tycoongrid/internal/portfolio"
	"tycoongrid/internal/predict"
)

// ForecastFunc is a streaming forecast handle: each of the partition's hosts
// carries a model on its market beside its price ring (see
// predict.ForecastMean), so a strategy can read a forecast in O(1) without
// materializing history.
type ForecastFunc func(horizon time.Duration) (predict.Forecast, error)

// Candidate is one partition the strategy can pick.
//
// History may be provided eagerly, or lazily via Hist — strategies that never
// need the raw series (predicted-* with a Forecast handle, current-price)
// then skip the copy entirely. Forecast, when non-nil, short-circuits the
// predicted strategies' rebuild-and-refit path.
type Candidate struct {
	ID           string
	CurrentPrice float64          // mean spot price across the partition's live hosts
	History      []float64        // recent mean prices, oldest first, spaced Step apart
	Step         time.Duration    // sampling interval of History
	Hist         func() []float64 // lazy History; consulted only when History is nil
	Forecast     ForecastFunc     // streaming forecast handle; nil = refit from history
}

// history returns the candidate's price series, materializing and memoizing
// the lazy Hist source on first use so portfolio math and predictor fallback
// share one copy.
func (c *Candidate) history() []float64 {
	if c.History == nil && c.Hist != nil {
		c.History = c.Hist()
		if c.History == nil {
			c.History = []float64{} // mark materialized: empty, not unfetched
		}
	}
	return c.History
}

// Pick is a strategy's decision.
type Pick struct {
	Index     int       // index into the candidate slice
	Predicted float64   // the strategy's price forecast for the chosen candidate
	Weights   []float64 // per-candidate weights, portfolio strategies only (nil otherwise)
}

// Strategy selects a candidate partition for the next job.
type Strategy interface {
	Name() string
	Pick(cands []Candidate) (Pick, error)
}

// Config parameterizes strategy construction. The zero value is usable.
type Config struct {
	Horizon   time.Duration // forecast horizon; default DefaultHorizon
	Predictor string        // batch predict model name ("ar"); default DefaultPredictor
	Window    int           // history window for predictors; 0 = predict default
}

// Defaults for Config.
const (
	DefaultHorizon   = 30 * time.Minute
	DefaultPredictor = "ar"
)

// predicted-quantile scores the 80th percentile of the forecast; portfolio
// weights need at least minObs aligned samples per candidate.
const (
	quantileLevel = 0.8
	minObs        = 8
)

func (c Config) withDefaults() Config {
	if c.Horizon <= 0 {
		c.Horizon = DefaultHorizon
	}
	if c.Predictor == "" {
		c.Predictor = DefaultPredictor
	}
	return c
}

// Errors returned by strategies.
var (
	ErrNoCandidates    = errors.New("strategy: no candidates")
	ErrUnknownStrategy = errors.New("strategy: unknown strategy")
)

// Registry of strategy constructors.
var makers = map[string]func(Config) Strategy{}

// Register adds a strategy constructor under name. It panics on an empty or
// duplicate name; registration happens at init time.
func Register(name string, make func(Config) Strategy) {
	if name == "" {
		panic("strategy: empty name")
	}
	if _, dup := makers[name]; dup {
		panic("strategy: duplicate name " + name)
	}
	makers[name] = make
}

func init() {
	Register(CurrentPrice, func(Config) Strategy { return &currentPrice{} })
	Register(PredictedMean, func(c Config) Strategy {
		c = c.withDefaults()
		return &predicted{name: PredictedMean, cfg: c}
	})
	Register(PredictedQuantile, func(c Config) Strategy {
		c = c.withDefaults()
		return &predicted{name: PredictedQuantile, cfg: c, quantile: quantileLevel}
	})
	Register(Portfolio, func(Config) Strategy {
		return &portfolioStrategy{credits: map[string]float64{}}
	})
}

// Canonical strategy names.
const (
	CurrentPrice      = "current-price"
	PredictedMean     = "predicted-mean"
	PredictedQuantile = "predicted-quantile"
	Portfolio         = "portfolio"
)

// New builds a registered strategy by name.
func New(name string, cfg Config) (Strategy, error) {
	mk, ok := makers[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q (have %v)", ErrUnknownStrategy, name, Names())
	}
	return mk(cfg), nil
}

// Names lists registered strategies, sorted.
func Names() []string {
	out := make([]string, 0, len(makers))
	for n := range makers {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// roundRobin deterministically breaks exact-score ties: among the tied
// candidate indices (ascending), the n-th tie picks tied[n mod len(tied)].
// Without it, equal prices — common right after startup, before any job has
// moved a price — would always land on candidate 0.
type roundRobin struct{ ties int }

func (r *roundRobin) pick(tied []int) int {
	if len(tied) == 1 {
		return tied[0]
	}
	i := tied[r.ties%len(tied)]
	r.ties++
	return i
}

// argminScores returns the indices sharing the minimum score.
func argminScores(scores []float64) []int {
	best := math.Inf(1)
	var tied []int
	for i, s := range scores {
		if s < best {
			best = s
			tied = tied[:0]
		}
		if s == best {
			tied = append(tied, i)
		}
	}
	return tied
}

// currentPrice picks the candidate with the lowest current spot price — the
// reactive baseline the paper's prediction strategies are measured against.
type currentPrice struct{ rr roundRobin }

func (s *currentPrice) Name() string { return CurrentPrice }

func (s *currentPrice) Pick(cands []Candidate) (Pick, error) {
	if len(cands) == 0 {
		return Pick{}, ErrNoCandidates
	}
	scores := make([]float64, len(cands))
	for i, c := range cands {
		scores[i] = c.CurrentPrice
	}
	i := s.rr.pick(argminScores(scores))
	return Pick{Index: i, Predicted: cands[i].CurrentPrice}, nil
}

// predicted picks the candidate with the lowest forecast price over the
// horizon: the mean forecast (predicted-mean), or an upper quantile
// (predicted-quantile) that penalizes volatile partitions even when their
// mean looks cheap. Candidates with too little history fall back to their
// current price, so the strategy degrades to current-price at startup.
type predicted struct {
	name     string
	cfg      Config
	quantile float64 // 0 = use the mean
	rr       roundRobin
}

func (s *predicted) Name() string { return s.name }

func (s *predicted) Pick(cands []Candidate) (Pick, error) {
	if len(cands) == 0 {
		return Pick{}, ErrNoCandidates
	}
	scores := make([]float64, len(cands))
	for i := range cands {
		scores[i] = s.score(&cands[i])
	}
	i := s.rr.pick(argminScores(scores))
	return Pick{Index: i, Predicted: scores[i]}, nil
}

func (s *predicted) score(c *Candidate) float64 {
	f, err := s.forecast(c)
	if err != nil {
		return c.CurrentPrice
	}
	if s.quantile > 0 {
		if q, err := f.Quantile(s.quantile); err == nil {
			return q
		}
	}
	return f.Mean
}

func (s *predicted) forecast(c *Candidate) (predict.Forecast, error) {
	if c.Forecast != nil {
		// Streaming handle: the predictor observed each clear as it happened,
		// so the forecast is a read, not a rebuild.
		return c.Forecast(s.cfg.Horizon)
	}
	step := c.Step
	if step <= 0 {
		step = predict.DefaultStep
	}
	p, err := predict.NewPredictor(s.cfg.Predictor, predict.PredictorConfig{
		Window: s.cfg.Window,
		Step:   step,
	})
	if err != nil {
		return predict.Forecast{}, err
	}
	// History carries no wall-clock times; synthetic timestamps spaced Step
	// apart preserve the spacing the predictor cares about.
	t := time.Unix(0, 0)
	for _, v := range c.history() {
		t = t.Add(step)
		if err := p.Observe(t, v); err != nil {
			return predict.Forecast{}, err
		}
	}
	return p.Predict(s.cfg.Horizon)
}

// portfolioStrategy spreads jobs across candidates in proportion to the
// Markowitz minimum-variance portfolio over their return histories
// (return = 1/price, paper §4.4). Individual jobs are indivisible, so the
// weight vector is realized by smooth weighted round-robin: each candidate
// accrues credit equal to its weight every pick, the richest candidate wins
// and pays 1 credit. Over n picks the visit counts converge to the weights,
// and the sequence is fully deterministic.
type portfolioStrategy struct {
	credits map[string]float64
}

func (s *portfolioStrategy) Name() string { return Portfolio }

func (s *portfolioStrategy) Pick(cands []Candidate) (Pick, error) {
	if len(cands) == 0 {
		return Pick{}, ErrNoCandidates
	}
	w := s.weights(cands)

	// Smooth weighted round-robin over candidate IDs.
	best, bestCredit := -1, math.Inf(-1)
	for i, c := range cands {
		s.credits[c.ID] += w[i]
		if cr := s.credits[c.ID]; cr > bestCredit {
			best, bestCredit = i, cr
		}
	}
	s.credits[cands[best].ID] -= 1

	predicted := cands[best].CurrentPrice
	if h := cands[best].history(); len(h) > 0 {
		var sum float64
		for _, v := range h {
			sum += v
		}
		predicted = sum / float64(len(h))
	}
	return Pick{Index: best, Predicted: predicted, Weights: w}, nil
}

// weights computes the minimum-variance weights over candidate return
// histories, degrading to equal weights whenever the data cannot support the
// math (short or missing history, singular covariance). Negative weights —
// short positions have no scheduling meaning — are clipped and the rest
// renormalized.
func (s *portfolioStrategy) weights(cands []Candidate) []float64 {
	n := len(cands)
	equal := make([]float64, n)
	for i := range equal {
		equal[i] = 1 / float64(n)
	}
	if n == 1 {
		return equal
	}
	series, assets, ok := returnSeries(cands)
	if !ok {
		return equal
	}
	cov, err := portfolio.CovarianceFromSeries(series)
	if err != nil {
		return equal
	}
	p, err := portfolio.MinimumVariance(assets, cov)
	if err != nil {
		return equal
	}
	return clipNormalize(p.Weights, equal)
}

// returnSeries builds tail-aligned 1/price series for all candidates. All
// series are truncated to the shortest history so the covariance is over a
// common time span; below minObs the portfolio math is not attempted.
func returnSeries(cands []Candidate) ([][]float64, []portfolio.Asset, bool) {
	m := math.MaxInt
	for i := range cands {
		if n := len(cands[i].history()); n < m {
			m = n
		}
	}
	if m < minObs {
		return nil, nil, false
	}
	series := make([][]float64, len(cands))
	assets := make([]portfolio.Asset, len(cands))
	for i := range cands {
		c := &cands[i]
		h := c.history()
		tail := h[len(h)-m:]
		rs := make([]float64, m)
		var mean float64
		for j, price := range tail {
			if price <= 0 || math.IsNaN(price) || math.IsInf(price, 0) {
				return nil, nil, false
			}
			rs[j] = 1 / price
			mean += rs[j]
		}
		series[i] = rs
		assets[i] = portfolio.Asset{ID: c.ID, Return: mean / float64(m)}
	}
	return series, assets, true
}

func clipNormalize(w, fallback []float64) []float64 {
	out := make([]float64, len(w))
	var sum float64
	for i, v := range w {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[i] = v
		sum += v
	}
	if sum <= 0 {
		return fallback
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}
