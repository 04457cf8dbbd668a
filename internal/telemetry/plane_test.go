package telemetry

import (
	"encoding/json"
	"net/http/httptest"
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
	if reg.CounterValue("slo_violations_total", "conservation") != 0 {
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
	if reg.CounterValue("slo_violations_total", "conservation") != 1 {
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
	h := HistoryHandler(db)

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
	for _, q := range []string{"?series=price&window=banana", "?series=price&buckets=-3", "?series=price&buckets=12abc", "?series=price&raw=maybe", "?series=price&window=-5s"} {
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
