// Package slo evaluates declarative service-level objectives against the
// embedded time-series store (internal/tsdb) using multi-window burn rates.
//
// An Objective names a tsdb series (or a pattern over several), a goodness
// predicate ("p99 < 50ms", "drift == 0") and an error budget: the fraction
// of samples inside the window that may be bad before the objective is
// considered burning. Each evaluation computes the
// bad-sample fraction over two tail-anchored windows — the objective's full
// window and a fast window one twelfth its size — and reports the burn rate
// (bad fraction / budget) for both. An objective is violating when both
// burn rates reach 1: the slow window proves the problem is sustained, the
// fast window proves it is still happening, the classic multi-window
// construction that keeps one transient spike from paging and
// one smoldering regression from hiding.
//
// Evaluations are pure reads of the tsdb plus gauge writes, cheap enough to
// run on every self-scrape tick and on every GET /slo. A transition into
// violation additionally logs a slog warning and records an "slo.violation"
// span whose attributes name the objective, so an SLO breach is visible in
// logs, in /metrics (slo_burn_rate, slo_violations_total), in /slo and in
// /debug/traces without any external alerting stack — the Tycoon
// SLS-status-index argument applied to objectives instead of hosts.
package slo

import (
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"time"

	"tycoongrid/internal/metrics"
	"tycoongrid/internal/tracing"
	"tycoongrid/internal/tsdb"
)

// Op is a goodness comparison: a sample v is good when "v Op Threshold".
type Op string

// Comparison operators: a latency under its bound, an invariant held exactly.
const (
	OpLT Op = "<"
	OpEQ Op = "=="
)

func (o Op) good(v, threshold float64) bool {
	switch o {
	case OpLT:
		return v < threshold
	case OpEQ:
		return v == threshold
	default:
		return false
	}
}

// Objective is one declarative SLO.
type Objective struct {
	// Name identifies the objective in /slo, metrics labels and logs.
	Name string `json:"name"`
	// Description is the operator-facing one-liner.
	Description string `json:"description,omitempty"`
	// Series is the tsdb series to judge: an exact name, or a pattern with
	// one '*' matching any substring ("http_request_duration_seconds{*:p99"),
	// resolved by tsdb.DB.Match.
	Series string `json:"series"`
	// Op and Threshold define goodness: a sample is good when v Op Threshold.
	Op        Op      `json:"op"`
	Threshold float64 `json:"threshold"`
	// Window is the slow evaluation window; the fast window is Window/12
	// (floored at one second).
	Window time.Duration `json:"-"`
	// Budget is the fraction of samples in a window allowed to be bad
	// before the burn rate reaches 1. Zero means zero tolerance: any bad
	// sample saturates the burn rate.
	Budget float64 `json:"budget"`
}

// fastWindow derives the short window of the pair.
func (o Objective) fastWindow() time.Duration {
	f := o.Window / 12
	if f < time.Second {
		f = time.Second
	}
	return f
}

// saturatedBurn stands in for "budget is zero and a bad sample exists" —
// effectively an infinite burn rate, capped so JSON stays finite.
const saturatedBurn = 1e6

// Status is one objective's evaluation result.
type Status struct {
	Objective Objective `json:"objective"`
	// NoData is true when the slow window held no samples (fresh boot,
	// series gap after a restart, or a daemon that never emits the series).
	// A no-data objective is not violating: absence of evidence pages nobody.
	NoData bool `json:"no_data"`
	// Violating is true when both burn rates reached 1.
	Violating bool `json:"violating"`
	// BurnFast and BurnSlow are badFraction/budget over each window.
	BurnFast float64 `json:"burn_fast"`
	BurnSlow float64 `json:"burn_slow"`
	// Samples counts judged samples in the slow window.
	Samples int `json:"samples"`
	// BadSamples counts judged-bad samples in the slow window.
	BadSamples int `json:"bad_samples"`
	// LastValue and LastAt describe the newest judged sample.
	LastValue float64   `json:"last_value"`
	LastAt    time.Time `json:"last_at"`
	// WindowSeconds/FastWindowSeconds make the windows visible on the wire.
	WindowSeconds     float64 `json:"window_seconds"`
	FastWindowSeconds float64 `json:"fast_window_seconds"`
}

// Evaluator judges a rule set against one tsdb.DB.
type Evaluator struct {
	db      *tsdb.DB
	rules   []Objective
	now     func() time.Time
	service string

	// Burn metrics live on the evaluator's registry (the daemon's own), so
	// the self-scrape collector stores slo_burn_rate history like any other
	// gauge and fleet scrapes can aggregate burn rates across daemons.
	mBurnRate   *metrics.GaugeVec
	mViolations *metrics.CounterVec

	// Evaluate runs on the scrape loop and on every GET /slo; evalMu
	// serialises them so each transition is logged and counted once.
	evalMu  sync.Mutex
	wasViol map[string]bool // each objective's state at the last evaluation
}

// Option configures an Evaluator.
type Option func(*Evaluator)

// WithNow injects the evaluation clock (tests, simulations). Windows are
// anchored at this clock, so a series that stops being fed ages out of its
// window instead of freezing its last verdict.
func WithNow(fn func() time.Time) Option {
	return func(e *Evaluator) {
		if fn != nil {
			e.now = fn
		}
	}
}

// WithRegistry places the slo_* burn metrics on reg (default: the process
// registry).
func WithRegistry(reg *metrics.Registry) Option {
	return func(e *Evaluator) {
		if reg != nil {
			e.bindMetrics(reg)
		}
	}
}

// New builds an evaluator for db over rules. service labels log lines.
func New(service string, db *tsdb.DB, rules []Objective, opts ...Option) *Evaluator {
	e := &Evaluator{
		db:      db,
		rules:   append([]Objective(nil), rules...),
		now:     time.Now,
		service: service,
		wasViol: make(map[string]bool),
	}
	e.bindMetrics(metrics.Default())
	for _, o := range opts {
		o(e)
	}
	return e
}

func (e *Evaluator) bindMetrics(reg *metrics.Registry) {
	e.mBurnRate = reg.GaugeVec("slo_burn_rate",
		"Error-budget burn rate per objective and window (bad fraction / budget).",
		"objective", "window")
	e.mViolations = reg.CounterVec("slo_violations_total",
		"Transitions into violation, by objective.", "objective")
}

// Evaluate judges every objective now, updates the slo_* metrics, logs
// violation transitions and returns the statuses sorted by objective name.
func (e *Evaluator) Evaluate() []Status {
	e.evalMu.Lock()
	defer e.evalMu.Unlock()

	at := e.now()
	out := make([]Status, 0, len(e.rules))
	for _, rule := range e.rules {
		st := e.evaluateOne(rule, at)
		out = append(out, st)

		e.mBurnRate.With(rule.Name, "fast").Set(st.BurnFast)
		e.mBurnRate.With(rule.Name, "slow").Set(st.BurnSlow)
		was := e.wasViol[rule.Name]
		if st.Violating && !was {
			e.mViolations.With(rule.Name).Inc()
			slog.Warn("slo: objective violating",
				"service", e.service, "objective", rule.Name,
				"burn_fast", st.BurnFast, "burn_slow", st.BurnSlow,
				"bad", st.BadSamples, "samples", st.Samples,
				"last_value", st.LastValue, "series", rule.Series)
			span := tracing.Default().StartRemote(tracing.SpanContext{}, "slo.violation",
				tracing.String("objective", rule.Name),
				tracing.String("service", e.service),
				tracing.String("series", rule.Series),
				tracing.String("burn_slow", fmt.Sprintf("%.3f", st.BurnSlow)),
				tracing.String("last_value", fmt.Sprintf("%g", st.LastValue)))
			span.End()
		} else if !st.Violating && was {
			slog.Info("slo: objective recovered",
				"service", e.service, "objective", rule.Name,
				"burn_fast", st.BurnFast, "burn_slow", st.BurnSlow)
		}
		e.wasViol[rule.Name] = st.Violating
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Objective.Name < out[j].Objective.Name })
	return out
}

// evaluateOne computes one objective's status at the anchor instant.
func (e *Evaluator) evaluateOne(rule Objective, at time.Time) Status {
	st := Status{
		Objective:         rule,
		WindowSeconds:     rule.Window.Seconds(),
		FastWindowSeconds: rule.fastWindow().Seconds(),
	}
	names := e.db.Match(rule.Series)
	slow := e.judged(rule, names, at, rule.Window)
	fast := e.judged(rule, names, at, rule.fastWindow())
	if len(slow) == 0 {
		st.NoData = true
		return st
	}
	last := slow[len(slow)-1]
	st.Samples = len(slow)
	st.LastValue = last.v
	st.LastAt = time.Unix(0, last.t)
	for _, s := range slow {
		if !s.good {
			st.BadSamples++
		}
	}
	st.BurnSlow = burnRate(slow, rule.Budget)
	st.BurnFast = burnRate(fast, rule.Budget)
	st.Violating = st.BurnSlow >= 1 && st.BurnFast >= 1
	return st
}

// judgedSample is one judged observation.
type judgedSample struct {
	t    int64
	v    float64
	good bool
}

// judged gathers the window's samples across matching series and judges
// each against the goodness predicate. Results are ascending by time.
func (e *Evaluator) judged(rule Objective, names []string, at time.Time, window time.Duration) []judgedSample {
	var out []judgedSample
	for _, name := range names {
		s, ok := e.db.Lookup(name)
		if !ok {
			continue
		}
		for _, p := range s.Range(at.UnixNano()-window.Nanoseconds(), at.UnixNano()) {
			out = append(out, judgedSample{t: p.T, v: p.V, good: rule.Op.good(p.V, rule.Threshold)})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].t < out[j].t })
	return out
}

// burnRate maps a judged window to badFraction/budget. An empty window
// burns nothing; a zero budget saturates on the first bad sample.
func burnRate(samples []judgedSample, budget float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	bad := 0
	for _, s := range samples {
		if !s.good {
			bad++
		}
	}
	frac := float64(bad) / float64(len(samples))
	if budget <= 0 {
		if bad > 0 {
			return saturatedBurn
		}
		return 0
	}
	rate := frac / budget
	if rate > saturatedBurn {
		return saturatedBurn
	}
	return rate
}
