package telemetry

import (
	"time"

	"tycoongrid/internal/httpapi"
	"tycoongrid/internal/metrics"
	"tycoongrid/internal/slo"
	"tycoongrid/internal/tsdb"
)

// DefaultScrapeInterval is the self-scrape cadence daemons use unless
// configured otherwise. Five seconds keeps a 5m SLO window at ~60 judged
// samples per objective.
const DefaultScrapeInterval = 5 * time.Second

// Config wires a Plane.
type Config struct {
	// Service names the daemon in SLO logs ("bankd", "auctioneerd", ...).
	Service string
	// Registry to self-scrape; nil means the process default.
	Registry *metrics.Registry
	// Interval between self-scrapes for Run; 0 means DefaultScrapeInterval.
	Interval time.Duration
	// Now is the scrape/evaluation clock; nil means time.Now. Simulations
	// inject engine time here so stored history is deterministic.
	Now func() time.Time
	// Objectives to evaluate; nil means slo.DefaultObjectives().
	Objectives []slo.Objective
	// Probes run before every self-scrape. They exist for derived gauges
	// that are too expensive to maintain inline — the bank's conservation
	// drift walks every account, so it is computed once per scrape tick
	// rather than once per transfer.
	Probes []func()
}

// Plane is one daemon's telemetry stack: self-scrape collector, series
// store, SLO evaluator and the HTTP handlers that expose them.
type Plane struct {
	reg       *metrics.Registry
	db        *tsdb.DB
	collector *tsdb.Collector
	evaluator *slo.Evaluator
	probes    []func()
	interval  time.Duration
}

// NewPlane builds a telemetry plane from cfg.
func NewPlane(cfg Config) *Plane {
	reg := cfg.Registry
	if reg == nil {
		reg = metrics.Default()
	}
	interval := cfg.Interval
	if interval <= 0 {
		interval = DefaultScrapeInterval
	}
	rules := cfg.Objectives
	if rules == nil {
		rules = slo.DefaultObjectives()
	}
	db := tsdb.NewDB(tsdb.DefaultCapacity)
	return &Plane{
		reg:       reg,
		db:        db,
		collector: tsdb.NewCollector(reg, db, cfg.Now),
		evaluator: slo.New(cfg.Service, db, rules, slo.WithRegistry(reg), slo.WithNow(cfg.Now)),
		probes:    cfg.Probes,
		interval:  interval,
	}
}

// DB exposes the plane's series store.
func (p *Plane) DB() *tsdb.DB { return p.db }

// Evaluator returns the SLO evaluator.
func (p *Plane) Evaluator() *slo.Evaluator { return p.evaluator }

// Collect runs one telemetry tick: probes, self-scrape, SLO evaluation.
// Returns the number of series points appended.
func (p *Plane) Collect() int {
	for _, probe := range p.probes {
		probe()
	}
	n := p.collector.Collect()
	p.evaluator.Evaluate()
	return n
}

// Run ticks Collect every interval until stop closes. The first tick runs
// immediately so the delta baseline is seeded at boot.
func (p *Plane) Run(stop <-chan struct{}) {
	t := time.NewTicker(p.interval)
	defer t.Stop()
	p.Collect()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			p.Collect()
		}
	}
}

// MuxOptions returns the ObservedMux options that mount the plane's
// endpoints: GET /metrics/history — the series, and on each histogram's :p99
// the registry's current exemplars — and GET /slo.
func (p *Plane) MuxOptions() []httpapi.MuxOption {
	return []httpapi.MuxOption{
		httpapi.WithHandler("GET /metrics/history", HistoryHandler(p.db, p.reg.Exemplars)),
		httpapi.WithHandler("GET /slo", p.evaluator.Handler()),
	}
}
