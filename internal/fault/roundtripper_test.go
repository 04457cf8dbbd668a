package fault

import (
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"
)

func countOutcomes(t *testing.T, cfg TransportConfig, n int) (ok, errs, fiveXX int) {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "hello")
	}))
	defer srv.Close()
	client := &http.Client{Transport: NewTransport(nil, cfg)}
	for i := 0; i < n; i++ {
		resp, err := client.Get(srv.URL)
		if err != nil {
			errs++
			continue
		}
		if resp.StatusCode == http.StatusServiceUnavailable {
			fiveXX++
		} else if resp.StatusCode == http.StatusOK {
			ok++
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	return ok, errs, fiveXX
}

func TestTransportInjectsErrors(t *testing.T) {
	ok, errs, fiveXX := countOutcomes(t, TransportConfig{Seed: 3, FailureRate: 0.3}, 200)
	if errs < 30 || errs > 90 {
		t.Errorf("injected errors = %d of 200, want near 60", errs)
	}
	if fiveXX != 0 {
		t.Errorf("unexpected 503s: %d", fiveXX)
	}
	if ok+errs != 200 {
		t.Errorf("outcomes don't add up: ok=%d errs=%d", ok, errs)
	}
}

func TestTransportInjects5xx(t *testing.T) {
	ok, errs, fiveXX := countOutcomes(t, TransportConfig{Seed: 5, ServerErrorRate: 0.3}, 200)
	if fiveXX < 30 || fiveXX > 90 {
		t.Errorf("injected 503s = %d of 200, want near 60", fiveXX)
	}
	if errs != 0 {
		t.Errorf("unexpected transport errors: %d", errs)
	}
	if ok+fiveXX != 200 {
		t.Errorf("outcomes don't add up: ok=%d fiveXX=%d", ok, fiveXX)
	}
}

func TestTransportCleanPassThrough(t *testing.T) {
	ok, errs, fiveXX := countOutcomes(t, TransportConfig{Seed: 1}, 50)
	if ok != 50 || errs != 0 || fiveXX != 0 {
		t.Errorf("clean transport: ok=%d errs=%d fiveXX=%d", ok, errs, fiveXX)
	}
}

// TestTransportDeterministic: two transports on one seed inject the same
// failures into the same requests, as their caller sees them: the i-th
// request's outcome, a transport error, a 503 or the inner answer, is the
// same in both runs.
func TestTransportDeterministic(t *testing.T) {
	run := func() (outcomes []int, errs, fiveXX int) {
		tr := NewTransport(roundTripFunc(func(r *http.Request) (*http.Response, error) {
			return &http.Response{StatusCode: 200, Body: io.NopCloser(strings.NewReader("ok"))}, nil
		}), TransportConfig{Seed: 9, FailureRate: 0.2, ServerErrorRate: 0.2})
		for i := 0; i < 100; i++ {
			req, _ := http.NewRequest("GET", "http://x/y", nil)
			resp, err := tr.RoundTrip(req)
			if err != nil {
				errs++
				outcomes = append(outcomes, 0)
				continue
			}
			if resp.StatusCode == http.StatusServiceUnavailable {
				fiveXX++
			}
			outcomes = append(outcomes, resp.StatusCode)
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		return outcomes, errs, fiveXX
	}
	o1, e1, s1 := run()
	o2, e2, s2 := run()
	if !slices.Equal(o1, o2) {
		t.Errorf("runs differ: errs=%d 5xx=%d vs errs=%d 5xx=%d", e1, s1, e2, s2)
	}
	if e1 == 0 || s1 == 0 {
		t.Errorf("nothing injected: errs=%d 5xx=%d", e1, s1)
	}
}

func TestTransportLatency(t *testing.T) {
	var slept []time.Duration
	tr := NewTransport(roundTripFunc(func(r *http.Request) (*http.Response, error) {
		return &http.Response{StatusCode: 200, Body: io.NopCloser(strings.NewReader("ok"))}, nil
	}), TransportConfig{
		Seed:       2,
		MaxLatency: 100 * time.Millisecond,
		Sleep:      func(d time.Duration) { slept = append(slept, d) },
	})
	for i := 0; i < 20; i++ {
		req, _ := http.NewRequest("GET", "http://x/y", nil)
		resp, err := tr.RoundTrip(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	if len(slept) == 0 {
		t.Fatal("no latency injected")
	}
	for _, d := range slept {
		if d < 0 || d >= 100*time.Millisecond {
			t.Errorf("latency %v outside [0, 100ms)", d)
		}
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }
