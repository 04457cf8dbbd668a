package main

import (
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"tycoongrid/internal/httpapi"
	"tycoongrid/internal/sim"
	"tycoongrid/internal/sls"
)

// TestMetricsFamilies: slsd's /metrics holds the families of what it links — the
// HTTP transport, the bank and its log (httpapi serves both), the telemetry
// plane's SLOs, the typed clients' retries and breakers and the signature
// counts — and none of the simulated grid's.
func TestMetricsFamilies(t *testing.T) {
	svc := httpapi.NewSLSService(sls.New(sim.WallClock{}))
	checkFamilies(t, httpapi.ObservedMux("slsd", svc), "http", "bank", "wal", "slo", "retries", "retry", "breaker", "pki")
}

// checkFamilies scrapes GET /metrics off h and fails on each family whose
// namespace (its name up to the first '_') is not one of namespaces, or when
// none is of the first, the daemon's own.
func checkFamilies(t *testing.T, h http.Handler, namespaces ...string) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics: %d", rec.Code)
	}
	seen := map[string]bool{}
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		family, ok := strings.CutPrefix(line, "# TYPE ")
		if !ok {
			continue
		}
		name, _, _ := strings.Cut(family, " ")
		ns, _, _ := strings.Cut(name, "_")
		seen[ns] = true
		if !slices.Contains(namespaces, ns) {
			t.Errorf("family %s is outside %v", name, namespaces)
		}
	}
	if !seen[namespaces[0]] {
		t.Errorf("no %s_ family in the scrape", namespaces[0])
	}
}
