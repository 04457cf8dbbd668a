package httpapi

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
)

// TelemetryClient reads a peer daemon's observability surface — /slo,
// /metrics/history and, on an aggregator host, /fleet — over the same
// fault-tolerant Caller the service clients use: retries with backoff for
// these idempotent GETs, a circuit breaker so a dead peer fails fast, and
// rpc.attempt spans so a slow scrape is itself traceable. Every method
// returns the peer's JSON as it came, for the caller to decode or pass on.
type TelemetryClient struct {
	base string
	c    Caller
}

// NewTelemetryClient builds a scrape client for the daemon at baseURL
// ("http://host:port"). A nil client gets DefaultClientTimeout.
func NewTelemetryClient(baseURL string, client *http.Client) *TelemetryClient {
	return &TelemetryClient{
		base: strings.TrimSuffix(baseURL, "/"),
		c:    newCaller("telemetry", client),
	}
}

// BaseURL returns the scrape target.
func (t *TelemetryClient) BaseURL() string { return t.base }

func (t *TelemetryClient) getRaw(ctx context.Context, path string) (json.RawMessage, error) {
	var raw []byte
	if err := t.c.get(ctx, t.base+path, &raw); err != nil {
		return nil, err
	}
	return raw, nil
}

// SLO fetches the peer's /slo report.
func (t *TelemetryClient) SLO(ctx context.Context) (json.RawMessage, error) {
	return t.getRaw(ctx, "/slo")
}

// History fetches from the peer's /metrics/history endpoint; rawQuery is
// already query-encoded by the caller.
func (t *TelemetryClient) History(ctx context.Context, rawQuery string) (json.RawMessage, error) {
	return t.getRaw(ctx, "/metrics/history?"+rawQuery)
}

// Fleet fetches an aggregator host's /fleet rollup. A 404 means the target
// is a plain daemon, not an aggregator host; callers fall back to the
// single-daemon surface.
func (t *TelemetryClient) Fleet(ctx context.Context) (json.RawMessage, error) {
	return t.getRaw(ctx, "/fleet")
}

// FleetHistory fetches from an aggregator host's /fleet/history endpoint;
// rawQuery is already query-encoded by the caller.
func (t *TelemetryClient) FleetHistory(ctx context.Context, rawQuery string) (json.RawMessage, error) {
	return t.getRaw(ctx, "/fleet/history?"+rawQuery)
}
