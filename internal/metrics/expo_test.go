package metrics

import (
	"strings"
	"testing"
)

// TestPrometheusExpositionGolden pins the exact exposition bytes: families
// sorted by name, HELP/TYPE headers, label escaping, cumulative histogram
// buckets with le labels, _sum and _count.
func TestPrometheusExpositionGolden(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("bank_transfers_total", "Transfers executed.", "outcome").With("ok").Add(7)
	r.CounterVec("bank_transfers_total", "Transfers executed.", "outcome").With("rejected").Inc()
	r.Gauge("auction_clearing_price", "Spot price, credits/second.").Set(0.25)
	h := r.Histogram("http_request_duration_seconds", "Request latency.", []float64{0.01, 0.1})
	// Binary-exact observations so the _sum formats deterministically.
	h.Observe(0.0078125)
	h.Observe(0.0625)
	h.Observe(0.5)
	r.CounterVec("weird_total", "Escaping\ncheck.", "path").With(`a"b\c`).Inc()

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP auction_clearing_price Spot price, credits/second.
# TYPE auction_clearing_price gauge
auction_clearing_price 0.25
# HELP bank_transfers_total Transfers executed.
# TYPE bank_transfers_total counter
bank_transfers_total{outcome="ok"} 7
bank_transfers_total{outcome="rejected"} 1
# HELP http_request_duration_seconds Request latency.
# TYPE http_request_duration_seconds histogram
http_request_duration_seconds_bucket{le="0.01"} 1
http_request_duration_seconds_bucket{le="0.1"} 2
http_request_duration_seconds_bucket{le="+Inf"} 3
http_request_duration_seconds_sum 0.5703125
http_request_duration_seconds_count 3
# HELP weird_total Escaping\ncheck.
# TYPE weird_total counter
weird_total{path="a\"b\\c"} 1
`
	if got := sb.String(); got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestExpositionSkipsEmptyFamilies checks that a vec with no children
// produces no output at all (no dangling TYPE header).
func TestExpositionSkipsEmptyFamilies(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("never_used_total", "No children.", "k")
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.Len() != 0 {
		t.Fatalf("expected empty exposition, got %q", sb.String())
	}
}

// TestExpositionEscaping pins the text-format escaping rules on their own:
// label values escape backslash, double-quote and newline; HELP text escapes
// backslash and newline but leaves double-quotes alone. A scraper fed the
// unescaped forms silently mis-parses the whole exposition, so each character
// gets its own assertion.
func TestExpositionEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("esc_total", "line one\nline \\ two \"quoted\"", "v").
		With("back\\slash \"quote\"\nnewline").Inc()

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	wantLines := []string{
		`# HELP esc_total line one\nline \\ two "quoted"`,
		`# TYPE esc_total counter`,
		`esc_total{v="back\\slash \"quote\"\nnewline"} 1`,
	}
	for _, w := range wantLines {
		if !strings.Contains(got, w+"\n") {
			t.Errorf("exposition missing line %q:\n%s", w, got)
		}
	}
	if strings.Count(got, "\n") != 3 {
		t.Errorf("raw newline leaked into exposition (%d lines):\n%q", strings.Count(got, "\n"), got)
	}
}
