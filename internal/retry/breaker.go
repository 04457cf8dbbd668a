package retry

import (
	"errors"
	"sync"
	"time"

	"tycoongrid/internal/metrics"
)

// State is a circuit breaker's position.
type State int

// Breaker states. The numeric values are exported verbatim through the
// breaker_state gauge.
const (
	Closed   State = 0 // calls flow; consecutive failures are counted
	Open     State = 1 // calls are rejected until the cool-down elapses
	HalfOpen State = 2 // a bounded number of probe calls test recovery
)

// String renders the state.
func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// ErrOpen is returned by Allow/Do while the breaker is rejecting calls. The
// default Policy classifier treats it as non-retryable so an open breaker
// fails fast instead of burning the whole retry budget.
var ErrOpen = errors.New("retry: circuit breaker open")

// The one breaker: five consecutive failures open it, and after a 30 s
// cool-down one probe call at a time tests recovery.
const (
	failureThreshold = 5
	openTimeout      = 30 * time.Second
	halfOpenProbes   = 1
)

// BreakerConfig names a Breaker. The zero value (plus a Name) is the
// production breaker; Now is for tests.
type BreakerConfig struct {
	// Name labels the breaker's metrics (breaker_state{name=...}).
	Name string
	// Now supplies the clock; nil means time.Now. Tests inject a manual
	// clock so breaker timelines run without sleeping.
	Now func() time.Time
}

// Breaker is a three-state circuit breaker. Safe for concurrent use.
type Breaker struct {
	cfg BreakerConfig

	mu       sync.Mutex
	state    State
	fails    int       // consecutive failures while closed
	openedAt time.Time // when the breaker last opened
	probes   int       // in-flight probes while half-open

	stateGauge *metrics.Gauge
	aborted    *metrics.Counter
	trips      *metrics.Counter
}

// NewBreaker builds a breaker, registering its metrics under cfg.Name.
func NewBreaker(cfg BreakerConfig) *Breaker {
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	b := &Breaker{
		cfg:        cfg,
		stateGauge: mBreakerState.With(cfg.Name),
		aborted:    mBreakerAborted.With(cfg.Name),
		trips:      mBreakerTrips.With(cfg.Name),
	}
	b.stateGauge.Set(float64(Closed))
	return b
}

func (b *Breaker) setStateLocked(s State) {
	b.state = s
	b.stateGauge.Set(float64(s))
}

func (b *Breaker) maybeHalfOpenLocked() {
	if b.state == Open && !b.cfg.Now().Before(b.openedAt.Add(openTimeout)) {
		b.setStateLocked(HalfOpen)
		b.probes = 0
	}
}

// Allow reports whether a call may proceed, reserving a probe slot in the
// half-open state. Every Allow that returns nil must be matched by exactly
// one Record.
func (b *Breaker) Allow() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.maybeHalfOpenLocked()
	switch b.state {
	case Closed:
		return nil
	case HalfOpen:
		if b.probes < halfOpenProbes {
			b.probes++
			return nil
		}
		b.aborted.Inc()
		return ErrOpen
	default: // Open
		b.aborted.Inc()
		return ErrOpen
	}
}

// Record reports a call's outcome. A success closes a half-open breaker and
// resets the failure count; a failure re-opens a half-open breaker
// immediately and trips a closed one at the threshold.
func (b *Breaker) Record(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == HalfOpen && b.probes > 0 {
		b.probes--
	}
	if err == nil {
		b.fails = 0
		if b.state != Closed {
			b.setStateLocked(Closed)
		}
		return
	}
	switch b.state {
	case HalfOpen:
		b.tripLocked()
	case Closed:
		b.fails++
		if b.fails >= failureThreshold {
			b.tripLocked()
		}
	}
}

func (b *Breaker) tripLocked() {
	b.setStateLocked(Open)
	b.openedAt = b.cfg.Now()
	b.fails = 0
	b.probes = 0
	b.trips.Inc()
}
