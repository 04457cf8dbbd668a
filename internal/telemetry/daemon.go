package telemetry

import (
	"fmt"
	"log/slog"
	"net/http"
	"time"

	"tycoongrid/internal/fault"
	"tycoongrid/internal/httpapi"
)

// Daemon is what every market daemon's main ends with once its service is
// built: the application handler and the knobs its flags set.
type Daemon struct {
	Service string // names the logs, the telemetry plane and the observed mux
	Addr    string
	App     http.Handler
	Health  *httpapi.Health
	// Probes run before every self-scrape (Config.Probes).
	Probes      []func()
	ScrapeEvery time.Duration
	Pprof       bool
	// MuxOptions mount anything beyond the stock surface (slsd's fleet
	// aggregator).
	MuxOptions []httpapi.MuxOption
	// OnDrain, if set, runs on shutdown after telemetry has stopped and
	// readiness has flipped to draining (bankd closes its WAL here).
	OnDrain func()
}

// Serve runs the daemon until SIGINT/SIGTERM: it starts the telemetry plane
// (self-scrape, SLOs, /metrics/history, /slo), arms handler chaos on the
// application routes when the TYCOON_CHAOS_HANDLER_* variables ask for it,
// and serves the observed mux, draining in-flight requests on shutdown.
func Serve(d Daemon) error {
	plane := NewPlane(Config{Service: d.Service, Interval: d.ScrapeEvery, Probes: d.Probes})
	stop := make(chan struct{})
	go plane.Run(stop)

	opts := []httpapi.MuxOption{httpapi.WithHealth(d.Health)}
	opts = append(opts, plane.MuxOptions()...)
	if d.Pprof {
		opts = append(opts, httpapi.WithPprof())
	}
	opts = append(opts, d.MuxOptions...)

	app := d.App
	if ccfg, armed, err := fault.HandlerFromEnv(); err != nil {
		close(stop)
		return fmt.Errorf("bad chaos handler spec: %w", err)
	} else if armed {
		slog.Warn(d.Service+": handler chaos armed",
			"max_latency", ccfg.MaxLatency, "error_rate", ccfg.ErrorRate)
		app = fault.Handler(ccfg, app)
	}

	return httpapi.Serve(d.Addr, httpapi.ObservedMux(d.Service, app, opts...), func() {
		close(stop)
		d.Health.StartDrain()
		if d.OnDrain != nil {
			d.OnDrain()
		}
	})
}
