// Package fault injects seeded failures into the daemons' HTTP traffic: a
// chaos http.RoundTripper (Transport) that corrupts the typed httpapi
// clients' requests with transport errors, 5xx responses and latency, and its
// server-side twin (Handler) that delays or fails a daemon's own request
// handling. Both are seeded explicitly so every chaos run is replayable
// bit-for-bit. Host churn in the simulated grid is box.Config.Churn's.
package fault

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"
)

// TransportConfig tunes the chaos RoundTripper.
type TransportConfig struct {
	// Seed makes the injected failure sequence reproducible.
	Seed int64
	// FailureRate is the probability in [0, 1] that a request fails at the
	// transport level (connection refused/reset style error).
	FailureRate float64
	// ServerErrorRate is the probability in [0, 1] that a request is
	// answered with a synthesized 503 instead of reaching the server.
	ServerErrorRate float64
	// MaxLatency, when positive, adds Uniform[0, MaxLatency) of extra
	// latency before each request that is allowed through.
	MaxLatency time.Duration
	// Sleep implements the latency injection; nil means time.Sleep. Tests
	// inject a recording stub so chaos runs do not stall.
	Sleep func(time.Duration)
}

// Transport wraps an http.RoundTripper with seeded error, 5xx and latency
// injection — the wire-level half of chaos testing, pointed at the typed
// httpapi clients. Safe for concurrent use.
type Transport struct {
	inner http.RoundTripper
	cfg   TransportConfig

	mu  sync.Mutex
	rnd func() float64 // uniform [0,1) draws, guarded by mu
}

// injectedError is the transport-level failure surfaced to clients; it looks
// like a connection error so retry classifiers treat it as transient.
type injectedError struct{ op string }

func (e *injectedError) Error() string { return "fault: injected transport error: " + e.op }

// NewTransport wraps inner (nil means http.DefaultTransport) with chaos
// injection.
func NewTransport(inner http.RoundTripper, cfg TransportConfig) *Transport {
	if inner == nil {
		inner = http.DefaultTransport
	}
	if cfg.Sleep == nil {
		cfg.Sleep = time.Sleep
	}
	src := newSource(cfg.Seed)
	return &Transport{inner: inner, cfg: cfg, rnd: src}
}

// newSource returns a deterministic uniform [0,1) generator (splitmix64).
// Callers serialize access through Transport.mu.
func newSource(seed int64) func() float64 {
	state := uint64(seed)*0x9E3779B97F4A7C15 + 0x9E3779B97F4A7C15
	return func() float64 {
		// splitmix64 step; deterministic and allocation-free.
		state += 0x9E3779B97F4A7C15
		z := state
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		z ^= z >> 31
		return float64(z>>11) / (1 << 53)
	}
}

func (t *Transport) draw() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.rnd()
}

// RoundTrip implements http.RoundTripper.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	if t.cfg.MaxLatency > 0 {
		if d := time.Duration(t.draw() * float64(t.cfg.MaxLatency)); d > 0 {
			t.cfg.Sleep(d)
		}
	}
	if t.cfg.FailureRate > 0 && t.draw() < t.cfg.FailureRate {
		// The request never reaches the wire; drain the body like a real
		// transport would on connection failure.
		if req.Body != nil {
			_, _ = io.Copy(io.Discard, req.Body)
			req.Body.Close()
		}
		return nil, &injectedError{op: req.Method + " " + req.URL.Path}
	}
	if t.cfg.ServerErrorRate > 0 && t.draw() < t.cfg.ServerErrorRate {
		if req.Body != nil {
			_, _ = io.Copy(io.Discard, req.Body)
			req.Body.Close()
		}
		body := fmt.Sprintf(`{"error":"fault: injected 503 for %s %s"}`, req.Method, req.URL.Path)
		return &http.Response{
			Status:        "503 Service Unavailable",
			StatusCode:    http.StatusServiceUnavailable,
			Proto:         req.Proto,
			ProtoMajor:    req.ProtoMajor,
			ProtoMinor:    req.ProtoMinor,
			Header:        http.Header{"Content-Type": []string{"application/json"}},
			Body:          io.NopCloser(strings.NewReader(body)),
			ContentLength: int64(len(body)),
			Request:       req,
		}, nil
	}
	return t.inner.RoundTrip(req)
}
