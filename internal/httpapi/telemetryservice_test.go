package httpapi

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
)

// TestTelemetryClientRoutes: each method GETs its endpoint on the peer, with
// the caller's query passed through as is, and decodes the JSON answer; a
// plain daemon's 404 for /fleet comes back as an error after one request,
// which is how gridtop tells a plain daemon from an aggregator host.
func TestTelemetryClientRoutes(t *testing.T) {
	var hits atomic.Int32
	mux := http.NewServeMux()
	for _, route := range []string{"/slo", "/metrics/history", "/fleet/history"} {
		mux.HandleFunc(route, func(w http.ResponseWriter, r *http.Request) {
			hits.Add(1)
			if r.Method != http.MethodGet {
				t.Errorf("%s: method %s", r.URL.Path, r.Method)
			}
			_ = json.NewEncoder(w).Encode(map[string]string{"path": r.URL.Path, "query": r.URL.RawQuery})
		})
	}
	mux.HandleFunc("/fleet", func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.NotFound(w, r)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	c := NewTelemetryClient(srv.URL+"/", nil) // a trailing slash is trimmed
	ctx := context.Background()

	for _, tc := range []struct {
		name, path, query string
		call              func(out any) error
	}{
		{"slo", "/slo", "", func(out any) error { return c.SLO(ctx, out) }},
		{"history", "/metrics/history", "name=up&since=60", func(out any) error {
			return c.History(ctx, "name=up&since=60", out)
		}},
		{"fleet-history", "/fleet/history", "name=auction_clears_total", func(out any) error {
			return c.FleetHistory(ctx, "name=auction_clears_total", out)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var got map[string]string
			if err := tc.call(&got); err != nil {
				t.Fatal(err)
			}
			if got["path"] != tc.path || got["query"] != tc.query {
				t.Errorf("peer saw %s?%s, want %s?%s", got["path"], got["query"], tc.path, tc.query)
			}
		})
	}
	t.Run("fleet-404", func(t *testing.T) {
		hits.Store(0)
		var out map[string]any
		if err := c.Fleet(ctx, &out); err == nil {
			t.Fatal("a 404 from /fleet decoded as success")
		}
		if n := hits.Load(); n != 1 {
			t.Errorf("/fleet requested %d times; a 404 is not retried", n)
		}
	})
}
