package httpapi

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"tycoongrid/internal/bank"
	"tycoongrid/internal/metrics"
	"tycoongrid/internal/pki"
	"tycoongrid/internal/sim"
	"tycoongrid/internal/tracing"
)

func TestObservedMuxRecordsRequests(t *testing.T) {
	app := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/boom" {
			WriteError(w, http.StatusBadRequest, http.ErrBodyNotAllowed)
			return
		}
		WriteJSON(w, map[string]string{"status": "ok"})
	})
	srv := httptest.NewServer(ObservedMux("testsvc", app))
	defer srv.Close()

	const (
		requests = `http_requests_total{code="200",method="GET",route="/accounts",service="testsvc"}`
		failures = `http_request_errors_total{route="/boom",service="testsvc"}`
	)
	before, errBefore := counter(requests), counter(failures)

	for i := 0; i < 3; i++ {
		resp, err := http.Get(srv.URL + "/accounts/alice")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	resp, err := http.Get(srv.URL + "/boom")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	got := counter(requests)
	if got-before != 3 {
		t.Fatalf("http_requests_total for /accounts grew by %d, want 3", got-before)
	}
	errGot := counter(failures)
	if errGot-errBefore != 1 {
		t.Fatalf("http_request_errors_total for /boom grew by %d, want 1", errGot-errBefore)
	}
}

// counter reads one counter child of the default registry out of a
// snapshot, by its metrics.SampleName; an absent child reads 0.
func counter(sample string) uint64 {
	for _, c := range metrics.Default().Snapshot().Counters {
		if metrics.SampleName(c.Name, c.Labels) == sample {
			return c.Value
		}
	}
	return 0
}

func TestObservedMuxMetricsEndpoint(t *testing.T) {
	app := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, map[string]string{"status": "ok"})
	})
	srv := httptest.NewServer(ObservedMux("scrapesvc", app))
	defer srv.Close()

	// Generate one observed request, then scrape.
	resp, err := http.Get(srv.URL + "/anything")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q, want text/plain exposition", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		"# TYPE http_requests_total counter",
		`http_requests_total{service="scrapesvc",route="/anything",method="GET",code="200"}`,
		"# TYPE http_request_duration_seconds histogram",
		`http_request_duration_seconds_bucket{service="scrapesvc",route="/anything",le="+Inf"}`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("exposition missing %q in:\n%s", want, body)
		}
	}
}

// exemplarBank serves bankd's handler stack over a bank in which alice holds
// credits and may pay bob; alice is the key that signs her transfers.
func exemplarBank(t *testing.T, credits bank.Amount) (*httptest.Server, *pki.Identity) {
	t.Helper()
	ca, err := pki.NewDeterministicCA("/CN=CA", [32]byte{1})
	if err != nil {
		t.Fatal(err)
	}
	bankID, _ := ca.IssueDeterministic("/CN=Bank", [32]byte{2})
	alice, _ := ca.IssueDeterministic("/CN=Alice", [32]byte{3})
	b := bank.New(bankID, sim.WallClock{})
	for _, id := range []bank.AccountID{"alice", "bob"} {
		if _, err := b.CreateAccount(id, alice.Public()); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Deposit("alice", credits, "seed"); err != nil {
		t.Fatal(err)
	}
	return httptest.NewServer(ObservedMux("bankd", NewBankService(b))), alice
}

// transferBody is the POST /transfers body of one credit from alice to bob
// under nonce, signed by alice.
func transferBody(alice *pki.Identity, nonce string) ([]byte, error) {
	req := bank.TransferRequest{From: "alice", To: "bob", Amount: bank.Credit, Nonce: nonce}
	req.Sig = alice.Sign(req.SigningBytes())
	return json.Marshal(TransferWire{From: "alice", To: "bob", Amount: req.Amount.String(),
		Nonce: req.Nonce, Sig: base64.RawURLEncoding.EncodeToString(req.Sig)})
}

// TestRequestLatencyExemplarNamesTrace sends one transfer through bankd's
// handler stack at sampling 1: the request latency histogram's bucket must
// carry the request span's trace as its exemplar, and that trace must resolve
// on the same daemon's /debug/traces. The span reaches the histogram through
// the request context.
func TestRequestLatencyExemplarNamesTrace(t *testing.T) {
	tr := tracing.Default()
	defer tr.SetSampleRatio(tr.SampleRatio())
	tr.SetSampleRatio(1)
	tr.Reset()
	defer tr.Reset()

	srv, alice := exemplarBank(t, 10*bank.Credit)
	defer srv.Close()

	body, err := transferBody(alice, "exemplar")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/transfers", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /transfers: %d", resp.StatusCode)
	}

	exs := metrics.Default().Exemplars()[`http_request_duration_seconds{route="/transfers",service="bankd"}`]
	if len(exs) == 0 {
		t.Fatal("http_request_duration_seconds{service=\"bankd\"} carries no exemplar after a traced request")
	}
	for _, ex := range exs {
		resp, err := http.Get(srv.URL + "/debug/traces/" + ex.TraceID)
		if err != nil {
			t.Fatal(err)
		}
		tree, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(tree), "http.server POST /transfers") {
			t.Errorf("exemplar trace %s: %d %s, want the request's server span", ex.TraceID, resp.StatusCode, tree)
		}
	}
}

// TestTransferExemplarNamesItsRequest sends signed transfers from two
// concurrent connections through bankd's handler stack at sampling 1. Every
// exemplar the requests leave on bank_transfer_seconds must name one of their
// own server spans' traces, and each must resolve on the daemon's
// /debug/traces to a tree holding the transfer's server span: the span
// reaches the bank through the request context, so two racing requests
// cannot name each other's trace, nor a trace that is not a request's.
func TestTransferExemplarNamesItsRequest(t *testing.T) {
	tr := tracing.Default()
	defer tr.SetSampleRatio(tr.SampleRatio())
	tr.SetSampleRatio(1)
	tr.Reset()
	defer tr.Reset()

	srv, alice := exemplarBank(t, 100*bank.Credit)
	defer srv.Close()

	const key = "bank_transfer_seconds"
	held := map[metrics.Exemplar]bool{}
	for _, ex := range metrics.Default().Exemplars()[key] {
		held[ex] = true
	}
	const conns, perConn = 2, 20
	errs := make(chan error, conns)
	for c := 0; c < conns; c++ {
		go func(c int) {
			client := &http.Client{Transport: &http.Transport{}} // a connection of its own
			defer client.CloseIdleConnections()
			for i := 0; i < perConn; i++ {
				body, err := transferBody(alice, fmt.Sprintf("conn%d-%d", c, i))
				if err != nil {
					errs <- err
					return
				}
				resp, err := client.Post(srv.URL+"/transfers", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("POST /transfers: %d", resp.StatusCode)
					return
				}
			}
			errs <- nil
		}(c)
	}
	for c := 0; c < conns; c++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}

	requests := map[string]bool{}
	for _, s := range tr.Summaries() {
		if s.Root == "http.server POST /transfers" {
			requests[s.TraceID.String()] = true
		}
	}
	if len(requests) != conns*perConn {
		t.Fatalf("%d transfer traces recorded, want %d", len(requests), conns*perConn)
	}
	fresh := 0
	for _, ex := range metrics.Default().Exemplars()[key] {
		if held[ex] {
			continue
		}
		fresh++
		if !requests[ex.TraceID] {
			t.Errorf("%s exemplar names trace %s, which is no transfer request's", key, ex.TraceID)
			continue
		}
		resp, err := http.Get(srv.URL + "/debug/traces/" + ex.TraceID + "?format=tree")
		if err != nil {
			t.Fatal(err)
		}
		tree, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(tree), "http.server POST /transfers") {
			t.Errorf("exemplar trace %s: %d %s, want the request's server span", ex.TraceID, resp.StatusCode, tree)
		}
	}
	if fresh == 0 {
		t.Errorf("%s carries no exemplar after %d sampled transfers", key, conns*perConn)
	}
}

// getWithTraceparent sends GET url, carrying traceparent when it is not "".
func getWithTraceparent(t *testing.T, url, traceparent string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if traceparent != "" {
		req.Header.Set(tracing.TraceparentHeader, traceparent)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
}

// TestRequestLatencyExemplarOnlyWhenRecording checks the other side of the
// request exemplar: a request whose server span does not record — sampled
// out locally, continuing a caller's unsampled trace, or on a probe route the
// mux does not hand to app — is counted in the latency histogram with no
// exemplar, so a bucket never names a trace /debug/traces cannot resolve.
func TestRequestLatencyExemplarOnlyWhenRecording(t *testing.T) {
	tr := tracing.Default()
	defer tr.SetSampleRatio(tr.SampleRatio())
	defer tr.Reset()
	app := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, map[string]string{"status": "ok"})
	})
	for _, c := range []struct {
		name, service, path, traceparent string
		ratio                            float64
	}{
		{"sampled out", "exunsampled", "/accounts/alice", "", 0},
		{"unsampled caller", "exunsampledcaller", "/accounts/alice",
			"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00", 1},
		{"probe route", "exprobe", "/healthz", "", 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			tr.SetSampleRatio(c.ratio)
			srv := httptest.NewServer(ObservedMux(c.service, app))
			defer srv.Close()
			route := routeLabel(c.path)
			requests := `http_requests_total{code="200",method="GET",route="` + route + `",service="` + c.service + `"}`
			before := counter(requests)
			getWithTraceparent(t, srv.URL+c.path, c.traceparent)
			if got := counter(requests); got != before+1 {
				t.Fatalf("http_requests_total grew by %d, want 1", got-before)
			}
			key := `http_request_duration_seconds{route="` + route + `",service="` + c.service + `"}`
			if exs := metrics.Default().Exemplars()[key]; len(exs) != 0 {
				t.Errorf("%s carries exemplars %+v from a request with no recording span", key, exs)
			}
		})
	}
}

// TestRequestLatencyExemplarFollowsSampledCaller checks that a daemon sampling
// nothing itself still names the trace of a caller that sampled the request:
// the server span continues the caller's trace and records, so the bucket's
// exemplar is the caller's trace id.
func TestRequestLatencyExemplarFollowsSampledCaller(t *testing.T) {
	tr := tracing.Default()
	defer tr.SetSampleRatio(tr.SampleRatio())
	tr.SetSampleRatio(0)
	tr.Reset()
	defer tr.Reset()
	app := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, map[string]string{"status": "ok"})
	})
	srv := httptest.NewServer(ObservedMux("excaller", app))
	defer srv.Close()

	const traceID = "4bf92f3577b34da6a3ce929d0e0e4736"
	getWithTraceparent(t, srv.URL+"/accounts/alice", "00-"+traceID+"-00f067aa0ba902b7-01")
	exs := metrics.Default().Exemplars()[`http_request_duration_seconds{route="/accounts",service="excaller"}`]
	if len(exs) != 1 || exs[0].TraceID != traceID {
		t.Errorf("exemplars = %+v, want one naming the caller's trace %s", exs, traceID)
	}
}

func TestHealthz(t *testing.T) {
	srv := httptest.NewServer(ObservedMux("healthsvc", http.NotFoundHandler()))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", resp.StatusCode)
	}
	var hr HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
		t.Fatal(err)
	}
	if hr.Status != "ok" || hr.Service != "healthsvc" {
		t.Fatalf("healthz body = %+v", hr)
	}
	if hr.UptimeSeconds < 0 {
		t.Fatalf("negative uptime %v", hr.UptimeSeconds)
	}
}

func TestRouteLabel(t *testing.T) {
	cases := map[string]string{
		"/":               "/",
		"":                "/",
		"/accounts":       "/accounts",
		"/accounts/alice": "/accounts",
		"/jobs/a/b/c":     "/jobs",
	}
	for in, want := range cases {
		if got := routeLabel(in); got != want {
			t.Errorf("routeLabel(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestReadJSONRejectsOversizedBody is the regression test for the 1 MiB
// cap: an oversized body must produce ErrBodyTooLarge and a 413 status,
// not a silent truncation followed by a confusing decode error.
func TestReadJSONRejectsOversizedBody(t *testing.T) {
	big := append([]byte(`{"pad":"`), bytes.Repeat([]byte("x"), MaxBodyBytes)...)
	big = append(big, `"}`...)
	r := httptest.NewRequest(http.MethodPost, "/x", bytes.NewReader(big))
	var v map[string]string
	err := ReadJSON(r, &v)
	if err == nil {
		t.Fatal("oversized body accepted")
	}
	if err != ErrBodyTooLarge {
		t.Fatalf("err = %v, want ErrBodyTooLarge", err)
	}
	if got := ReadStatus(err); got != http.StatusRequestEntityTooLarge {
		t.Fatalf("ReadStatus = %d, want 413", got)
	}

	// A body exactly at the cap still decodes.
	payload := append([]byte(`{"pad":"`), bytes.Repeat([]byte("x"), MaxBodyBytes-10)...)
	payload = append(payload, `"}`...)
	if len(payload) > MaxBodyBytes {
		t.Fatalf("test payload misconstructed: %d bytes", len(payload))
	}
	r = httptest.NewRequest(http.MethodPost, "/x", bytes.NewReader(payload))
	if err := ReadJSON(r, &v); err != nil {
		t.Fatalf("at-cap body rejected: %v", err)
	}
	if got := ReadStatus(nil); got != http.StatusBadRequest {
		t.Fatalf("ReadStatus(nil-ish) = %d, want 400 default", got)
	}
}

// allocSink keeps the httptest fixture on the heap in both of
// TestObservedMuxAllocationBound's counts.
var allocSink struct {
	w http.ResponseWriter
	r *http.Request
}

// TestObservedMuxAllocationBound counts what ObservedMux adds to one request
// for a no-op app at sample ratio 0, above the allocations of the httptest
// request and recorder it is served with. With go1.24 on linux/amd64 it read
// 18 when two wrappers each made a status recorder, a route label and a
// status string and the traceparent header name was canonicalized per
// request; the one wrapper adds 14.
func TestObservedMuxAllocationBound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocations are counted without -race")
	}
	const bound = 14
	tr := tracing.Default()
	defer tr.SetSampleRatio(tr.SampleRatio())
	tr.SetSampleRatio(0)
	h := ObservedMux("allocsvc", http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	fixture := testing.AllocsPerRun(200, func() {
		allocSink.w = httptest.NewRecorder()
		allocSink.r = httptest.NewRequest(http.MethodGet, "/accounts/alice", nil)
	})
	served := testing.AllocsPerRun(200, func() {
		allocSink.w = httptest.NewRecorder()
		allocSink.r = httptest.NewRequest(http.MethodGet, "/accounts/alice", nil)
		h.ServeHTTP(allocSink.w, allocSink.r)
	})
	if got := served - fixture; got > bound {
		t.Errorf("ObservedMux adds %.0f allocations to a request (%.0f served, %.0f fixture), want <= %d",
			got, served, fixture, bound)
	}
	t.Logf("ObservedMux adds %.0f allocations (%.0f served, %.0f fixture)", served-fixture, served, fixture)
}

// TestObservedMuxTracesOnlyTheApp: at sample ratio 1, the daemon's own routes
// — scrapes, probes, debug endpoints and the routes WithHandler mounts, such
// as the telemetry plane's /metrics/history and /slo — record no trace, so an
// aggregator's polls cannot push the application's traces out of the ring.
// Every request the mux hands to app records one.
func TestObservedMuxTracesOnlyTheApp(t *testing.T) {
	tr := tracing.Default()
	defer tr.SetSampleRatio(tr.SampleRatio())
	tr.SetSampleRatio(1)
	tr.Reset()
	defer tr.Reset()
	noop := http.HandlerFunc(func(http.ResponseWriter, *http.Request) {})
	h := ObservedMux("scrapedsvc", noop,
		WithHandler("GET /metrics/history", noop), WithHandler("GET /slo", noop), WithPprof())
	get := func(method, path string) {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(method, path, nil))
	}
	for _, path := range []string{"/metrics", "/metrics/history", "/slo", "/healthz", "/healthz/ready",
		"/debug/traces", "/debug/pprof/cmdline"} {
		get(http.MethodGet, path)
		if sums := tr.Summaries(); len(sums) != 0 {
			t.Errorf("GET %s recorded the trace %q", path, sums[0].Root)
			tr.Reset()
		}
	}
	get(http.MethodGet, "/accounts/alice")
	get(http.MethodPost, "/metrics") // not the scrape route: app serves it
	var roots []string
	for _, s := range tr.Summaries() {
		roots = append(roots, s.Root)
	}
	sort.Strings(roots)
	if want := "[http.server GET /accounts http.server POST /metrics]"; fmt.Sprint(roots) != want {
		t.Errorf("app requests recorded %v, want %s", roots, want)
	}
}
