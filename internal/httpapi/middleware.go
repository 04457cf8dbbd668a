package httpapi

import (
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

// statusRecorder captures the status code a handler writes.
type statusRecorder struct {
	http.ResponseWriter
	status int
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

// Instrument wraps next so every request is recorded in the default
// registry: request count by route/method/code, error count, in-flight
// gauge and a latency histogram. When the request runs inside a recording
// server span (Traced, wrapped around Instrument), the latency lands in its
// bucket with the span's trace id as the bucket's exemplar; nothing is read
// from the tracer's scope stack, which concurrent handlers do not push.
func Instrument(service string, next http.Handler) http.Handler {
	inFlight := mInFlight.With(service)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		route := routeLabel(r.URL.Path)
		inFlight.Inc()
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w}
		next.ServeHTTP(rec, r)
		elapsed := time.Since(start).Seconds()
		inFlight.Dec()
		if rec.status == 0 {
			rec.status = http.StatusOK
		}
		mRequests.With(service, route, r.Method, strconv3(rec.status)).Inc()
		if span := tracing.SpanFromContext(r.Context()); span.Recording() {
			mDuration.With(service, route).ObserveExemplar(elapsed, span.Context().TraceID.String())
		} else {
			mDuration.With(service, route).Observe(elapsed)
		}
		if rec.status >= 400 {
			mErrors.With(service, route).Inc()
		}
	})
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
// on; application routes additionally run inside a server span (Traced),
// which is outermost so the latency histogram can name the span's trace.
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
	mux.Handle("/", app)
	return Traced(service, Instrument(service, mux))
}
