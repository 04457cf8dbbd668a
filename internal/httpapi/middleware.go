package httpapi

import (
	"fmt"
	"net/http"
	"net/http/pprof"
	"strings"
	"time"

	"tycoongrid/internal/metrics"
	"tycoongrid/internal/tracing"
)

// HTTP-layer metric families, shared by every daemon. The route label is
// the first path segment ("/accounts/alice" -> "/accounts") so cardinality
// stays bounded no matter what ids clients put in paths.
var (
	mRequests = metrics.Default().CounterVec("http_requests_total",
		"HTTP requests served, by daemon, route, method and status code.",
		"service", "route", "method", "code")
	mErrors = metrics.Default().CounterVec("http_request_errors_total",
		"HTTP requests answered with a 4xx or 5xx status.",
		"service", "route")
	mInFlight = metrics.Default().GaugeVec("http_in_flight_requests",
		"Requests currently being served.", "service")
	mDuration = metrics.Default().HistogramVec("http_request_duration_seconds",
		"HTTP request latency.", nil, "service", "route")
)

// statusRecorder is one request's state as ObservedMux serves it: the status
// code its handler writes, its route label and, when app serves it, its
// server span.
type statusRecorder struct {
	http.ResponseWriter
	status int
	route  string
	span   *tracing.Span
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.status = code
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(p []byte) (int, error) {
	if sr.status == 0 {
		sr.status = http.StatusOK
	}
	return sr.ResponseWriter.Write(p)
}

// routeLabel normalizes a request path to its first segment.
func routeLabel(path string) string {
	path = strings.TrimPrefix(path, "/")
	if i := strings.IndexByte(path, '/'); i >= 0 {
		path = path[:i]
	}
	if path == "" {
		return "/"
	}
	return "/" + path
}

// observed is ObservedMux's request wrapper. Every request is recorded in the
// default registry: request count by route/method/code, error count, in-flight
// gauge and a latency histogram. A request the mux hands to app also runs
// inside a server span (serveApp), which ServeHTTP ends with the status; when
// that span records, the latency lands in its bucket with the span's trace id
// as the bucket's exemplar.
type observed struct {
	service  string
	mux      *http.ServeMux
	app      http.Handler
	inFlight *metrics.Gauge
}

func (o *observed) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rec := &statusRecorder{ResponseWriter: w, route: routeLabel(r.URL.Path)}
	o.inFlight.Inc()
	start := time.Now()
	o.mux.ServeHTTP(rec, r)
	elapsed := time.Since(start).Seconds()
	o.inFlight.Dec()
	if rec.status == 0 {
		rec.status = http.StatusOK
	}
	code := strconv3(rec.status)
	mRequests.With(o.service, rec.route, r.Method, code).Inc()
	if span := rec.span; span.Recording() {
		span.SetAttr(tracing.String("status", code))
		if rec.status >= 500 {
			span.EndErr(fmt.Errorf("status %d", rec.status))
		} else {
			span.End()
		}
		mDuration.With(o.service, rec.route).ObserveExemplar(elapsed, span.Context().TraceID.String())
	} else {
		mDuration.With(o.service, rec.route).Observe(elapsed)
	}
	if rec.status >= 400 {
		mErrors.With(o.service, rec.route).Inc()
	}
}

// serveApp runs app inside a server span. An incoming W3C traceparent header
// joins the caller's trace (each retry attempt arrives with its own parent
// span id); without one the request starts a new trace. It is the mux's
// catch-all route, so the daemon's own routes — scrapes, probes, debug
// endpoints, WithHandler's — stay untraced and cannot push the application's
// traces out of the ring.
func (o *observed) serveApp(w http.ResponseWriter, r *http.Request) {
	rec := w.(*statusRecorder) // the mux hands on ServeHTTP's recorder
	sc, _ := tracing.ParseTraceparent(r.Header.Get(tracing.TraceparentHeader))
	rec.span = tracing.Default().StartRemote(sc, "http.server "+r.Method+" "+rec.route,
		tracing.String("service", o.service),
		tracing.String("path", r.URL.Path))
	o.app.ServeHTTP(rec, r.WithContext(tracing.ContextWithSpan(r.Context(), rec.span)))
}

// strconv3 formats the three-digit HTTP statuses without an allocation-happy
// strconv.Itoa in the hot path.
func strconv3(code int) string {
	if code < 100 || code > 999 {
		return "000"
	}
	var b [3]byte
	b[0] = byte('0' + code/100)
	b[1] = byte('0' + code/10%10)
	b[2] = byte('0' + code%10)
	return string(b[:])
}

// MetricsHandler serves reg (nil means the default registry) in the
// Prometheus text exposition format, version 0.0.4.
func MetricsHandler(reg *metrics.Registry) http.Handler {
	if reg == nil {
		reg = metrics.Default()
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WritePrometheus(w)
	})
}

// MuxOption configures ObservedMux.
type MuxOption func(*muxConfig)

type muxConfig struct {
	health *Health
	pprof  bool
	extra  []extraRoute
}

type extraRoute struct {
	pattern string
	handler http.Handler
}

// WithHealth supplies the daemon's Health so readiness reflects its real
// dependency state. Without it the daemon reports ready from boot.
func WithHealth(h *Health) MuxOption {
	return func(c *muxConfig) { c.health = h }
}

// WithHandler mounts an extra route on the observed mux, ahead of the
// application handler. The telemetry plane uses this to expose
// /metrics/history and /slo on every daemon without httpapi depending on the
// telemetry package.
func WithHandler(pattern string, h http.Handler) MuxOption {
	return func(c *muxConfig) {
		c.extra = append(c.extra, extraRoute{pattern: pattern, handler: h})
	}
}

// WithPprof mounts net/http/pprof under /debug/pprof/ — behind a flag in
// every daemon, because profile endpoints on a market daemon are a
// information leak in an untrusted network.
func WithPprof() MuxOption {
	return func(c *muxConfig) { c.pprof = true }
}

// ObservedMux wraps a daemon's application handler with the standard
// observability surface: GET /metrics (text exposition of the default
// registry), the /healthz liveness and /healthz/{live,ready} split,
// GET /debug/traces (+ /debug/traces/{id}) over the default tracer,
// optionally /debug/pprof/, and every other path delegated to app. The
// whole mux is instrumented, scrapes and health probes included, so a
// freshly booted daemon exposes http_requests_total from its first scrape
// on; exactly the requests delegated to app additionally run inside a server
// span, which the latency histogram names as its exemplar.
func ObservedMux(service string, app http.Handler, opts ...MuxOption) http.Handler {
	var cfg muxConfig
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.health == nil {
		cfg.health = NewHealth(service)
	}
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", MetricsHandler(nil))
	mux.Handle("GET /healthz", cfg.health.LivenessHandler())
	mux.Handle("GET /healthz/live", cfg.health.LivenessHandler())
	mux.Handle("GET /healthz/ready", cfg.health.ReadinessHandler())
	mux.Handle("GET /debug/traces", TraceListHandler(nil))
	mux.Handle("GET /debug/traces/{id}", TraceGetHandler(nil))
	for _, e := range cfg.extra {
		mux.Handle(e.pattern, e.handler)
	}
	if cfg.pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	o := &observed{service: service, mux: mux, app: app, inFlight: mInFlight.With(service)}
	mux.HandleFunc("/", o.serveApp)
	return o
}
