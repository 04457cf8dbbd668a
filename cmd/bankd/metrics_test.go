package main

import (
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"tycoongrid/internal/httpapi"
)

// TestMetricsFamilies: bankd's /metrics holds the families of what it links — the
// bank and its log, the HTTP transport, the telemetry plane's SLOs, the
// typed clients' retries and breakers and the signature counts — and none of
// the simulated grid's.
func TestMetricsFamilies(t *testing.T) {
	_, id, err := identityFor("/O=Grid/CN=Bank", "families")
	if err != nil {
		t.Fatal(err)
	}
	svc := httpapi.NewBankService(newBank(id))
	checkFamilies(t, httpapi.ObservedMux("bankd", svc), "bank", "wal", "http", "slo", "retries", "retry", "breaker", "pki")
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
