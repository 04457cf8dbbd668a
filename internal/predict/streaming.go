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

// StreamingAR names the streaming AR model, the only one NewStreaming builds.
const StreamingAR = "streaming-ar"

// DefaultShrink matches the batch pipeline's stabilization: iterated
// forecasts shrink near-unit-root fits to sum |alpha_j| <= 0.995.
const DefaultShrink = 0.995

// NewStreaming builds the streaming AR model. name must be StreamingAR.
func NewStreaming(name string, cfg PredictorConfig) (*StreamAR, error) {
	if name != StreamingAR {
		return nil, fmt.Errorf("predict: unknown streaming predictor %q (want %q)", name, StreamingAR)
	}
	return newStreamAR(cfg), nil
}

// StreamAR is the incremental AR(k) model: Observe folds one spot-price
// sample into running state in O(Order) and Forecast reads the current model
// without touching history. It keeps the trailing Window observations in a
// ring, but — unlike the batch arPredictor — never copies them out or refits
// from scratch. Instead it maintains the running lagged product sums the
// Yule-Walker autocorrelations are built from, applying a rank-1 update as
// each sample enters and the displaced one leaves, and re-solves the k x k
// Toeplitz system lazily, at the first forecast after a new observation.
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
//
// Unlike the batch Predictor, a StreamAR is safe for concurrent use: at
// Shards >= 2 the market plane's shard goroutines feed it while the engine
// goroutine reads forecasts.
type StreamAR struct {
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

	tbuf, rbuf, sbuf []float64 // reusable solve scratch
}

// firstValues is the ring a model's first observation allocates; it doubles
// as values arrive, up to Window, so a host that is never bid on costs a few
// floats and not a window's worth.
const firstValues = 8

func newStreamAR(c PredictorConfig) *StreamAR {
	c = c.withDefaults()
	return &StreamAR{
		cfg:     c,
		lagProd: make([]float64, c.Order+1),
		tbuf:    make([]float64, c.Order),
		rbuf:    make([]float64, c.Order),
		sbuf:    make([]float64, 5*c.Order),
	}
}

// at returns the i-th oldest centered value (0 <= i < n).
func (p *StreamAR) at(i int) float64 {
	return p.buf[(p.head+i)%len(p.buf)]
}

func (p *StreamAR) Observe(price float64, at time.Time) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := pricefeed.Check(price, at, p.last, p.seen); err != nil {
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
func (p *StreamAR) refresh() {
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
// where the prefix sum head = H_j adds the first j values and the suffix sum
// tail = T_j the last j, so 2*sum - H_j - T_j is what the plain sum is
// without them. All quantities are in centered z-space; R is
// shift-invariant, so this equals the batch Autocorrelation of the raw
// window.
func (p *StreamAR) autocorr(j int, mu, head, tail float64) float64 {
	nj := float64(p.n - j)
	return (p.lagProd[j] - mu*(2*p.sum-head-tail) + nj*mu*mu) / nj
}

// solve refits the Yule-Walker system from the running sums, an O(Order^2)
// step the rank-1 updates keep off the observe path. H_j and T_j grow by one
// value per lag, inward from the window's ends, so each is summed in the
// order i = 0..j-1 and R(j) is bit for bit the per-lag sum
// TestForecastMeanMatchesPerModelReference holds it to.
func (p *StreamAR) solve() error {
	k := p.cfg.Order
	mu := p.sum / float64(p.n)
	var head, tail float64
	h, t := p.head, (p.head+p.n-1)%len(p.buf)
	for j := 0; j <= k; j++ {
		if j > 0 {
			head += p.buf[h]
			tail += p.buf[t]
			if h++; h == len(p.buf) {
				h = 0
			}
			if t == 0 {
				t = len(p.buf)
			}
			t--
		}
		r := p.autocorr(j, mu, head, tail)
		if j < k {
			p.tbuf[j] = r
		}
		if j > 0 {
			p.rbuf[j-1] = r
		}
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
func (p *StreamAR) Model() (*ARModel, error) {
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

func (p *StreamAR) requireHistory() error {
	if need := 2*p.cfg.Order + 1; p.n < need {
		return fmt.Errorf("%w: streaming AR(%d) has %d points, want >= %d",
			ErrInsufficientHistory, p.cfg.Order, p.n, need)
	}
	return nil
}

// Forecast returns the model's price distribution over horizon: the AR
// recurrence iterated horizon/Step steps ahead (at least one, at most the
// window), and the window's sample deviation. It is ForecastMean's kernel
// run on one lane.
func (p *StreamAR) Forecast(horizon time.Duration) (Forecast, error) {
	var g lanes
	if err := g.load(p, horizon); err != nil {
		return Forecast{}, err
	}
	g.run()
	return g.forecast(0), nil
}

// The forecast kernel. Iterating the AR recurrence is a chain of Order
// dependent adds per step, so one model's forecast waits on float latency,
// not throughput; ForecastMean runs up to laneWidth models' chains through
// one loop so the CPU overlaps them. Each lane does exactly the float
// operations a one-model loop does, in the same order, so the forecasts are
// bit-identical however the models are grouped.
const (
	// laneWidth is how many models' recurrences one pass advances.
	laneWidth = 4
	// stackOrder is the largest order whose lane state lives in the kernel's
	// own arrays; a larger one takes heap scratch for the call.
	stackOrder = 16
	// rebase is how many steps a lane's value window grows before its
	// newest Order values move back to the front.
	rebase = 64
)

// lanes is the state of up to laneWidth models of one order k: each read out
// of its model under that model's lock (load), then iterated together with no
// lock held (run). Row j of a window holds one value per lane.
type lanes struct {
	n, k  int // lanes loaded, and their shared order
	steps [laneWidth]int
	// mu is each lane's z-space mean, ref its centering reference, sigma the
	// window's sample deviation, v the iterate after steps steps.
	mu, ref, sigma, v [laneWidth]float64
	c                 [stackOrder][laneWidth]float64          // shrunk coefficients, reversed: c[i] multiplies d[n-k+i]
	d                 [stackOrder + rebase][laneWidth]float64 // values minus mu, oldest first
	heap              [][laneWidth]float64                    // c then d when k > stackOrder
}

// windows returns the coefficient rows and the value window of order g.k.
func (g *lanes) windows() (c, d [][laneWidth]float64) {
	if g.k <= stackOrder {
		return g.c[:g.k], g.d[:g.k+rebase]
	}
	return g.heap[:g.k], g.heap[g.k:]
}

// load reads p's forecast state into the next lane under p's lock,
// re-solving first if an observation arrived since the last solve. The
// caller starts a new group when p's order differs from the group's.
func (g *lanes) load(p *StreamAR, horizon time.Duration) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.requireHistory(); err != nil {
		return err
	}
	if !p.fitted {
		if err := p.solve(); err != nil {
			return err
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
	k, l := p.cfg.Order, g.n
	if l == 0 {
		g.k = k
		if need := 2*k + rebase; k > stackOrder && len(g.heap) < need {
			g.heap = make([][laneWidth]float64, need)
		}
	}
	c, d := g.windows()

	// Shrink near-unit-root fits to sum |alpha_j| <= DefaultShrink, as the
	// batch pipeline does before iterating.
	var s float64
	for _, a := range p.model.Coeffs {
		s += math.Abs(a)
	}
	for j, a := range p.model.Coeffs {
		if s > DefaultShrink {
			a *= DefaultShrink / s
		}
		c[k-1-j][l] = a
	}
	mu := p.model.Mu
	for i := 0; i < k; i++ {
		d[i][l] = p.at(p.n-k+i) - mu
	}

	// Sigma is the window's sample deviation, from the same running sums the
	// fit uses: Var_sample = R(0) * n/(n-1).
	r0 := p.autocorr(0, mu, 0, 0)
	if r0 < 0 {
		r0 = 0
	}
	g.steps[l], g.mu[l], g.ref[l] = steps, mu, p.ref
	g.sigma[l] = math.Sqrt(r0 * float64(p.n) / float64(p.n-1))
	g.n++
	return nil
}

// run iterates every loaded lane its own number of steps in z-space:
//
//	v = mu + sum_{j=1..k} alpha_j * (x_{t-j} - mu)
//
// The lanes go through the loop together until the last of them is done;
// each keeps the iterate of its own final step. Unloaded lanes iterate
// zeros.
func (g *lanes) run() {
	if g.n == 0 {
		return
	}
	c, d := g.windows()
	k, last := g.k, 0
	for l := 0; l < laneWidth; l++ {
		if l >= g.n {
			g.steps[l], g.mu[l] = 0, 0
			for j := 0; j < k; j++ {
				c[j][l], d[j][l] = 0, 0
			}
		}
		last = max(last, g.steps[l])
	}
	mu0, mu1, mu2, mu3 := g.mu[0], g.mu[1], g.mu[2], g.mu[3]
	var v0, v1, v2, v3 float64
	n := k
	for s := 0; s < last; {
		// Run to the next lane's last step, then keep that lane's iterate.
		end := last
		for _, st := range g.steps {
			if st > s && st < end {
				end = st
			}
		}
		for ; s < end; s++ {
			if n == len(d) {
				copy(d, d[n-k:n])
				n = k
			}
			win := d[n-k : n]
			v0, v1, v2, v3 = mu0, mu1, mu2, mu3
			for i := len(win) - 1; i >= 0; i-- { // newest value first: the order the sum must keep
				ci, di := &c[i], &win[i]
				v0 += ci[0] * di[0]
				v1 += ci[1] * di[1]
				v2 += ci[2] * di[2]
				v3 += ci[3] * di[3]
			}
			d[n] = [laneWidth]float64{v0 - mu0, v1 - mu1, v2 - mu2, v3 - mu3}
			n++
		}
		for l, v := range [laneWidth]float64{v0, v1, v2, v3} {
			if g.steps[l] == end {
				g.v[l] = v
			}
		}
	}
}

// forecast returns lane l's forecast once run has iterated it.
func (g *lanes) forecast(l int) Forecast {
	mean := g.ref[l] + g.v[l]
	if mean < 0 {
		mean = 0 // an explosive fit can dip below zero; prices cannot
	}
	return Forecast{Mean: mean, Sigma: g.sigma[l]}
}
