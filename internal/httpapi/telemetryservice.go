package httpapi

import (
	"context"
	"net/http"
	"strings"
)

// TelemetryClient reads a peer daemon's observability surface — /slo,
// /metrics/history and, on an aggregator host, /fleet — over the same
// fault-tolerant Caller the service clients use: retries with backoff for
// these idempotent GETs, a circuit breaker so a dead peer fails fast, and
// rpc.attempt spans so a slow scrape is itself traceable. Every method
// decodes the peer's JSON into out, the endpoint's wire type
// (slo.Report, telemetry.HistoryResponse, telemetry.FleetReport).
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

// SLO fetches the peer's /slo report.
func (t *TelemetryClient) SLO(ctx context.Context, out any) error {
	return t.c.get(ctx, t.base+"/slo", out)
}

// History fetches from the peer's /metrics/history endpoint; rawQuery is
// already query-encoded by the caller.
func (t *TelemetryClient) History(ctx context.Context, rawQuery string, out any) error {
	return t.c.get(ctx, t.base+"/metrics/history?"+rawQuery, out)
}

// Fleet fetches an aggregator host's /fleet rollup. A 404 means the target
// is a plain daemon, not an aggregator host; callers fall back to the
// single-daemon surface.
func (t *TelemetryClient) Fleet(ctx context.Context, out any) error {
	return t.c.get(ctx, t.base+"/fleet", out)
}

// FleetHistory fetches from an aggregator host's /fleet/history endpoint;
// rawQuery is already query-encoded by the caller.
func (t *TelemetryClient) FleetHistory(ctx context.Context, rawQuery string, out any) error {
	return t.c.get(ctx, t.base+"/fleet/history?"+rawQuery, out)
}
