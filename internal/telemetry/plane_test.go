package telemetry

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"net/url"
	"sort"
	"strings"
	"testing"
	"time"

	"tycoongrid/internal/metrics"
	"tycoongrid/internal/slo"
	"tycoongrid/internal/tsdb"
)

type stepClock struct {
	at   time.Time
	step time.Duration
}

func (c *stepClock) now() time.Time {
	c.at = c.at.Add(c.step)
	return c.at
}

func TestPlaneCollectFeedsProbesAndSLO(t *testing.T) {
	reg := metrics.NewRegistry()
	drift := reg.Gauge("bank_conservation_drift_credits", "drift")
	// 2s per now() call: the evaluator's clock reads one step after the
	// collector's append stamp, and the fast window (Window/12 = 5s) must
	// still contain the freshly appended sample.
	clock := &stepClock{at: time.Unix(5000, 0), step: 2 * time.Second}

	probeRan := 0
	p := NewPlane(Config{
		Service:  "bankd",
		Registry: reg,
		Now:      clock.now,
		Objectives: []slo.Objective{{
			Name: "conservation", Series: "bank_conservation_drift_credits",
			Op: slo.OpEQ, Threshold: 0, Window: time.Minute, Budget: 0,
		}},
		Probes: []func(){func() { probeRan++; drift.Set(0) }},
	})
	for i := 0; i < 3; i++ {
		p.Collect()
	}
	if probeRan != 3 {
		t.Fatalf("probe ran %d times, want 3", probeRan)
	}
	s, ok := p.DB().Lookup("bank_conservation_drift_credits")
	if !ok || s.Len() != 3 {
		t.Fatalf("drift series missing or short: %v", p.DB().Names())
	}
	// Burn gauges land back in the registry, so they self-scrape next tick.
	if counter(reg, `slo_violations_total{objective="conservation"}`) != 0 {
		t.Fatal("zero drift must not violate")
	}

	// Now drift: the very next Collect must catch it (zero budget).
	p2 := NewPlane(Config{
		Service:  "bankd",
		Registry: reg,
		Now:      clock.now,
		Objectives: []slo.Objective{{
			Name: "conservation", Series: "bank_conservation_drift_credits",
			Op: slo.OpEQ, Threshold: 0, Window: time.Minute, Budget: 0,
		}},
		Probes: []func(){func() { drift.Set(3) }},
	})
	p2.Collect()
	if counter(reg, `slo_violations_total{objective="conservation"}`) != 1 {
		t.Fatal("drift must violate within one collection tick")
	}
}

func TestHistoryHandler(t *testing.T) {
	db := tsdb.NewDB(128)
	s := db.Series("price")
	base := time.Unix(9000, 0)
	for i := 0; i < 100; i++ {
		s.AppendNanos(base.Add(time.Duration(i)*time.Second).UnixNano(), float64(i))
	}
	h := HistoryHandler(db, nil)

	// Listing.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics/history", nil))
	var listing struct {
		Names []string `json:"names"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &listing); err != nil || len(listing.Names) != 1 {
		t.Fatalf("listing = %s (err %v)", rec.Body.String(), err)
	}

	// Downsampled window.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics/history?series=price&window=50s&buckets=5", nil))
	var resp struct {
		WindowSeconds float64 `json:"window_seconds"`
		Series        []struct {
			Name    string `json:"name"`
			Buckets []struct {
				Count int     `json:"count"`
				Mean  float64 `json:"mean"`
			} `json:"buckets"`
		} `json:"series"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if len(resp.Series) != 1 || len(resp.Series[0].Buckets) != 5 {
		t.Fatalf("resp = %s", rec.Body.String())
	}

	// Raw points.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics/history?series=price&window=10s&raw=1", nil))
	var rawResp struct {
		Series []struct {
			Points []tsdb.Point `json:"points"`
		} `json:"series"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &rawResp); err != nil {
		t.Fatal(err)
	}
	if len(rawResp.Series) != 1 || len(rawResp.Series[0].Points) == 0 {
		t.Fatalf("raw resp = %s", rec.Body.String())
	}

	// Bad queries are 400s, never panics.
	for _, q := range []string{"?series=price&window=banana", "?series=price&buckets=-3", "?series=price&buckets=12abc", "?series=price&raw=maybe", "?series=price&window=-5s", "?after=price"} {
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics/history"+q, nil))
		if rec.Code != 400 {
			t.Fatalf("query %q -> %d, want 400", q, rec.Code)
		}
	}

	// Unknown series: empty but valid response.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics/history?series=zzz", nil))
	if rec.Code != 200 {
		t.Fatalf("unknown series -> %d", rec.Code)
	}
}

// TestHistoryHandlerPages walks a store larger than one page with after= and
// sees every series exactly once, in name order, with the exemplars of each
// histogram on its :p99 series and nowhere else.
func TestHistoryHandlerPages(t *testing.T) {
	db := tsdb.NewDB(8)
	var want []string
	for i := 0; i < 2*maxHistorySeries+5; i++ {
		name := fmt.Sprintf("lat_%03d%s", i, tsdb.SuffixP99)
		db.Series(name).AppendNanos(1, float64(i))
		want = append(want, name)
	}
	db.Series("lat_000"+tsdb.SuffixRate).AppendNanos(1, 1)
	want = append(want, "lat_000"+tsdb.SuffixRate)
	sort.Strings(want)
	h := HistoryHandler(db, func() map[string][]metrics.Exemplar {
		return map[string][]metrics.Exemplar{"lat_000": {{Value: 0.7, TraceID: "abc"}}}
	})

	var got []string
	after, pages := "", 0
	for {
		q := url.Values{"series": {"*"}, "raw": {"1"}}
		if after != "" {
			q.Set("after", after)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics/history?"+q.Encode(), nil))
		var page HistoryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
			t.Fatalf("page after %q: %v", after, err)
		}
		pages++
		if len(page.Series) > maxHistorySeries {
			t.Fatalf("page after %q holds %d series", after, len(page.Series))
		}
		for _, hs := range page.Series {
			got = append(got, hs.Name)
			traced := len(hs.Exemplars) == 1 && hs.Exemplars[0].TraceID == "abc"
			if traced != (hs.Name == "lat_000"+tsdb.SuffixP99) {
				t.Fatalf("%s: exemplars = %+v", hs.Name, hs.Exemplars)
			}
		}
		if !page.Truncated {
			break
		}
		after = page.Series[len(page.Series)-1].Name
	}
	if pages != 3 || strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("%d pages served %d of %d series:\n%v", pages, len(got), len(want), got)
	}
}

// TestLatencySLOClearsAfterSlowBurst is the scenario a lifetime p99 gets
// wrong: one slow burst of 100 requests, then 2 000 fast ones an interval.
// The burst's interval violates; the very next interval's :p99 is back under
// the threshold, and once the burst has left the fast window — and later the
// slow one — the objective stops violating and then counts no bad sample. A
// cumulative p99 stays at 0.45 s for the next fifty-odd intervals.
func TestLatencySLOClearsAfterSlowBurst(t *testing.T) {
	reg := metrics.NewRegistry()
	lat := reg.HistogramVec("http_request_duration_seconds", "latency", nil, "route").With("/transfers")
	at := time.Unix(5000, 0)
	p := NewPlane(Config{
		Service:  "bankd",
		Registry: reg,
		Now:      func() time.Time { return at },
		Objectives: []slo.Objective{{
			Name: "request-latency-p99", Series: "http_request_duration_seconds{*" + tsdb.SuffixP99,
			Op: slo.OpLT, Threshold: 0.050, Window: time.Minute, Budget: 0.05,
		}},
	})
	interval := func(n int, seconds float64) slo.Status {
		for i := 0; i < n; i++ {
			lat.Observe(seconds)
		}
		at = at.Add(5 * time.Second)
		p.Collect()
		return p.Evaluator().Evaluate()[0]
	}

	interval(2000, 0.001) // the first collect seeds
	if st := interval(100, 0.4); !st.Violating || st.LastValue < 0.25 {
		t.Fatalf("a slow burst must violate: %+v", st)
	}
	series, _ := p.DB().Lookup(`http_request_duration_seconds{route="/transfers"}` + tsdb.SuffixP99)
	for i := 1; i <= 20; i++ {
		st := interval(2000, 0.001)
		if last, _ := series.Latest(); last.V >= 0.050 {
			t.Fatalf("interval %d after the burst: p99 = %g, of fast requests only", i, last.V)
		}
		if st.Violating {
			t.Fatalf("interval %d after the burst: still violating: %+v", i, st)
		}
		if i >= 12 && st.BadSamples != 0 {
			t.Fatalf("interval %d: the burst left the slow window, yet %+v", i, st)
		}
	}
}
