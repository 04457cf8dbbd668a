package predict

import (
	"fmt"
	"math"
	"sync"
	"time"

	"tycoongrid/internal/matrix"
	"tycoongrid/internal/pricefeed"
)

// This file is the model the price feed carries: one streaming AR(k) per
// host, updated in O(1) per observation instead of being refitted from a
// copied history window per forecast. The batch arPredictor (predictor.go)
// remains the reference — the contract tests in streaming_test.go pin the
// streaming fit to the batch FitAR result within 1e-9 on identical windows.
//
// Unlike the batch Predictor, a StreamingPredictor is safe for concurrent
// use: at Shards >= 2 the market plane's shard goroutines feed it while the
// engine goroutine reads forecasts.

// StreamingPredictor is a price model maintained incrementally: Observe
// folds one spot-price sample into running state in O(1) and Forecast reads
// the current model without touching history.
type StreamingPredictor interface {
	Observe(price float64, at time.Time) error
	Forecast(horizon time.Duration) (Forecast, error)
}

// StreamingAR names the streaming AR model, the only one NewStreaming builds.
const StreamingAR = "streaming-ar"

// DefaultShrink matches the batch pipeline's stabilization: iterated
// forecasts shrink near-unit-root fits to sum |alpha_j| <= 0.995.
const DefaultShrink = 0.995

// NewStreaming builds the streaming AR model. name must be StreamingAR.
func NewStreaming(name string, cfg PredictorConfig) (StreamingPredictor, error) {
	if name != StreamingAR {
		return nil, fmt.Errorf("predict: unknown streaming predictor %q (want %q)", name, StreamingAR)
	}
	return newStreamAR(cfg), nil
}

// validateSample applies the pricefeed boundary rules to one streaming
// sample: finite non-negative prices, strictly increasing timestamps.
// last/seen are the model's ordering state.
func validateSample(price float64, at time.Time, last time.Time, seen bool) error {
	if math.IsNaN(price) || math.IsInf(price, 0) {
		return fmt.Errorf("%w: %v", pricefeed.ErrNonFinite, price)
	}
	if price < 0 {
		return fmt.Errorf("%w: %v", pricefeed.ErrNegative, price)
	}
	if seen {
		if at.Before(last) {
			return fmt.Errorf("%w: %v < %v", pricefeed.ErrOutOfOrder, at, last)
		}
		if at.Equal(last) {
			return fmt.Errorf("%w: %v", pricefeed.ErrDuplicate, at)
		}
	}
	return nil
}

// streamAR is the incremental AR(k) model. It keeps the trailing Window
// observations in a ring, but — unlike the batch arPredictor — never copies
// them out or refits from scratch. Instead it maintains the running lagged
// product sums the Yule-Walker autocorrelations are built from, applying a
// rank-1 update as each sample enters and the displaced one leaves, and
// re-solves the k x k Toeplitz system lazily, at the first forecast after a
// new observation.
//
// Numerical contract (see DESIGN.md "Incremental-fit contract"):
//
//   - Values are centered on the first accepted observation (z = x - ref)
//     before entering any sum. The autocorrelation R(k) of the paper is
//     shift-invariant, so this changes nothing mathematically, but it makes
//     the expanded form R(k) = (P_k - mu(H_k+T_k) + (n-k)mu^2)/(n-k)
//     cancellation-safe on near-constant series — the degenerate case the
//     live market actually produces during flat reserve-price stretches.
//   - Every full ring turnover the sums are recomputed exactly from the ring
//     (O(Window * Order), amortized O(Order) per observation), bounding
//     floating-point drift to one window's worth of rank-1 updates. That is
//     what keeps the streaming fit within 1e-9 of the batch FitAR fit no
//     matter how long the stream runs.
type streamAR struct {
	mu  sync.Mutex
	cfg PredictorConfig

	buf  []float64 // ring of centered values, grown up to Window as they arrive
	head int       // index of the oldest value; 0 until the window first fills
	n    int
	ref  float64   // centering reference: the first accepted price
	last time.Time // newest accepted timestamp
	seen bool      // an observation has been accepted; ref and last are set

	sum       float64   // sum of z_i over the window
	lagProd   []float64 // P_k = sum z_{i+k} z_i, k = 0..Order
	evictions int       // evictions since the last exact refresh

	model  ARModel
	fitted bool // model is solved over the current window

	tbuf, rbuf, sbuf, work []float64 // reusable solve/forecast scratch
}

// firstValues is the ring a model's first observation allocates; it doubles
// as values arrive, up to Window, so a host that is never bid on costs a few
// floats and not a window's worth.
const firstValues = 8

func newStreamAR(c PredictorConfig) *streamAR {
	c = c.withDefaults()
	return &streamAR{
		cfg:     c,
		lagProd: make([]float64, c.Order+1),
		tbuf:    make([]float64, c.Order),
		rbuf:    make([]float64, c.Order),
		sbuf:    make([]float64, 5*c.Order),
	}
}

// at returns the i-th oldest centered value (0 <= i < n).
func (p *streamAR) at(i int) float64 {
	return p.buf[(p.head+i)%len(p.buf)]
}

func (p *streamAR) Observe(price float64, at time.Time) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := validateSample(price, at, p.last, p.seen); err != nil {
		return err
	}
	if !p.seen {
		p.ref = price
	}
	z := price - p.ref
	k := p.cfg.Order

	if p.n == p.cfg.Window {
		// Evict the oldest value z_0: it participates in exactly the pairs
		// (z_j, z_0) for j = 0..Order (z_0^2 at lag 0).
		z0 := p.buf[p.head]
		p.sum -= z0
		for j := 0; j <= k && j <= p.n-1; j++ {
			p.lagProd[j] -= z0 * p.at(j)
		}
		p.head = (p.head + 1) % len(p.buf)
		p.n--
		p.evictions++
	} else if p.n == len(p.buf) {
		// Not yet a full window, so nothing was ever evicted: the values sit
		// in buf[:n] from head 0.
		buf := make([]float64, min(max(2*len(p.buf), firstValues), p.cfg.Window))
		copy(buf, p.buf)
		p.buf = buf
	}

	// Append z as the newest value: it adds the pairs (z, z_{n-j}) for
	// j = 0..min(Order, n), with j = 0 contributing z^2.
	idx := (p.head + p.n) % len(p.buf)
	p.buf[idx] = z
	for j := 0; j <= k && j <= p.n; j++ {
		p.lagProd[j] += z * p.at(p.n-j)
	}
	p.n++
	p.sum += z
	p.fitted = false
	p.seen = true
	p.last = at

	if p.evictions >= p.cfg.Window {
		p.refresh()
	}
	return nil
}

// refresh recomputes the running sums exactly from the ring contents,
// resetting accumulated floating-point drift. Called once per full ring
// turnover, so its O(n * Order) cost amortizes to O(Order) per observation.
func (p *streamAR) refresh() {
	p.sum = 0
	for j := range p.lagProd {
		p.lagProd[j] = 0
	}
	for i := 0; i < p.n; i++ {
		zi := p.at(i)
		p.sum += zi
		for j := 0; j <= p.cfg.Order && i+j < p.n; j++ {
			p.lagProd[j] += p.at(i+j) * zi
		}
	}
	p.evictions = 0
}

// autocorr returns the paper's unbiased sample autocorrelation at lag j,
// computed from the running sums:
//
//	R(j) = (P_j - mu*(H_j + T_j) + (n-j)*mu^2) / (n-j)
//
// where H_j drops the first j values from the plain sum and T_j drops the
// last j. All quantities are in centered z-space; R is shift-invariant, so
// this equals the batch Autocorrelation of the raw window.
func (p *streamAR) autocorr(j int, mu float64) float64 {
	var headSum, tailSum float64
	for i := 0; i < j; i++ {
		headSum += p.at(i)
		tailSum += p.at(p.n - 1 - i)
	}
	nj := float64(p.n - j)
	return (p.lagProd[j] - mu*(2*p.sum-headSum-tailSum) + nj*mu*mu) / nj
}

// solve refits the Yule-Walker system from the running sums, an O(Order^2)
// step the rank-1 updates keep off the observe path.
func (p *streamAR) solve() error {
	k := p.cfg.Order
	mu := p.sum / float64(p.n)
	for j := 0; j < k; j++ {
		p.tbuf[j] = p.autocorr(j, mu)
		p.rbuf[j] = p.autocorr(j+1, mu)
	}
	if p.model.Coeffs == nil {
		p.model.Coeffs = make([]float64, k)
	}
	p.model.Order = k
	p.model.Mu = mu // z-space mean; the raw-space mean is ref + Mu
	if p.tbuf[0] <= 0 {
		// Constant window (the batch path's t[0] == 0 case; <= guards the
		// last-ulp cancellation a constant stream of identical values can
		// leave behind): the best AR prediction is the mean itself.
		for j := range p.model.Coeffs {
			p.model.Coeffs[j] = 0
		}
		p.fitted = true
		return nil
	}
	alpha, err := matrix.SolveToeplitzInto(p.sbuf[:k], p.sbuf[k:], p.tbuf, p.rbuf)
	if err != nil {
		return fmt.Errorf("predict: streaming Yule-Walker solve: %w", err)
	}
	copy(p.model.Coeffs, alpha)
	p.fitted = true
	return nil
}

// Model returns the current raw Yule-Walker fit in raw (uncentered) space,
// re-solving first if the cached fit is stale. This is the hook the
// equivalence contract tests compare against batch FitAR; no shrink is
// applied.
func (p *streamAR) Model() (*ARModel, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.requireHistory(); err != nil {
		return nil, err
	}
	if err := p.solve(); err != nil {
		return nil, err
	}
	m := &ARModel{Order: p.model.Order, Mu: p.ref + p.model.Mu,
		Coeffs: append([]float64(nil), p.model.Coeffs...)}
	return m, nil
}

func (p *streamAR) requireHistory() error {
	if need := 2*p.cfg.Order + 1; p.n < need {
		return fmt.Errorf("%w: streaming AR(%d) has %d points, want >= %d",
			ErrInsufficientHistory, p.cfg.Order, p.n, need)
	}
	return nil
}

func (p *streamAR) Forecast(horizon time.Duration) (Forecast, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.requireHistory(); err != nil {
		return Forecast{}, err
	}
	if !p.fitted {
		if err := p.solve(); err != nil {
			return Forecast{}, err
		}
	}
	steps := int(horizon / p.cfg.Step)
	if steps < 1 {
		steps = 1
	}
	// Same clamp as the batch arPredictor: iterating past the window itself
	// extrapolates pure model bias.
	if steps > p.n {
		steps = p.n
	}

	k := p.cfg.Order
	coeffs := p.model.Coeffs
	var shrunk [16]float64 // Order is small; avoid allocating per forecast
	var s float64
	for _, a := range coeffs {
		s += math.Abs(a)
	}
	if s > DefaultShrink {
		f := DefaultShrink / s
		dst := shrunk[:0]
		if k > len(shrunk) {
			dst = make([]float64, 0, k)
		}
		for _, a := range coeffs {
			dst = append(dst, a*f)
		}
		coeffs = dst
	}

	// Iterate the forecast in z-space over a reusable scratch window seeded
	// with the k newest values.
	if cap(p.work) < k+steps {
		p.work = make([]float64, 0, k+steps)
	}
	w := p.work[:0]
	for i := p.n - k; i < p.n; i++ {
		w = append(w, p.at(i))
	}
	mu := p.model.Mu
	var v float64
	for s := 0; s < steps; s++ {
		v = mu
		n := len(w)
		for j := 1; j <= k; j++ {
			v += coeffs[j-1] * (w[n-j] - mu)
		}
		w = append(w, v)
	}
	p.work = w[:0]

	mean := p.ref + v
	if mean < 0 {
		mean = 0 // an explosive fit can dip below zero; prices cannot
	}
	// Sigma is the window's sample deviation, from the same running sums the
	// fit uses: Var_sample = R(0) * n/(n-1).
	r0 := p.autocorr(0, mu)
	if r0 < 0 {
		r0 = 0
	}
	sigma := math.Sqrt(r0 * float64(p.n) / float64(p.n-1))
	return Forecast{Mean: mean, Sigma: sigma}, nil
}
