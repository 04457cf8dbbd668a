package slo

import (
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"tycoongrid/internal/metrics"
	"tycoongrid/internal/tsdb"
)

// feed appends one point per second ending at end-1s on the named series.
func feed(db *tsdb.DB, name string, end time.Time, vals ...float64) {
	start := end.Add(-time.Duration(len(vals)) * time.Second)
	s := db.Series(name)
	for i, v := range vals {
		s.AppendNanos(start.Add(time.Duration(i)*time.Second).UnixNano(), v)
	}
}

func newEval(t *testing.T, db *tsdb.DB, now time.Time, rules ...Objective) (*Evaluator, *metrics.Registry) {
	t.Helper()
	reg := metrics.NewRegistry()
	e := New("test", db, rules, WithNow(func() time.Time { return now }), WithRegistry(reg))
	return e, reg
}

func TestBurnRateViolationAndRecovery(t *testing.T) {
	now := time.Unix(10_000, 0)
	db := tsdb.NewDB(256)
	rule := Objective{
		Name: "latency", Series: "lat:p99", Op: OpLT, Threshold: 0.05,
		Window: 60 * time.Second, Budget: 0.10,
	}
	e, reg := newEval(t, db, now, rule)

	// 60 good samples: no burn.
	feed(db, "lat:p99", now, repeat(0.01, 60)...)
	st := e.Evaluate()[0]
	if st.Violating || st.BurnSlow != 0 || st.NoData {
		t.Fatalf("clean window: %+v", st)
	}

	// Overwrite the tail: last 20 samples bad. Slow window: 20/60 bad over a
	// 0.10 budget -> burn ~3.3; fast window (5s) all bad -> burn 10.
	db2 := tsdb.NewDB(256)
	e2, reg2 := newEval(t, db2, now, rule)
	feed(db2, "lat:p99", now, append(repeat(0.01, 40), repeat(0.2, 20)...)...)
	st = e2.Evaluate()[0]
	if !st.Violating {
		t.Fatalf("sustained bad tail must violate: %+v", st)
	}
	// 59, not 60: the oldest sample lands exactly on the window boundary and
	// WindowBefore is exclusive at the start.
	if st.BadSamples != 20 || st.Samples != 59 {
		t.Fatalf("bad/samples = %d/%d, want 20/59", st.BadSamples, st.Samples)
	}
	if st.BurnSlow < 3.2 || st.BurnSlow > 3.5 {
		t.Fatalf("burn slow = %g, want ~3.33", st.BurnSlow)
	}
	if got := violations(reg2, "latency"); got != 1 {
		t.Fatalf("violations counter = %d, want 1", got)
	}
	// Second evaluation while still violating must not double-count.
	e2.Evaluate()
	if got := violations(reg2, "latency"); got != 1 {
		t.Fatalf("violations counter after re-eval = %d, want still 1", got)
	}
	_ = reg
}

// TestBurnRateTransientSpikeDoesNotPage: a bad burst older than the fast
// window keeps the slow burn high but the fast burn low -> no violation.
// This is the whole point of the multi-window construction.
func TestBurnRateTransientSpikeDoesNotPage(t *testing.T) {
	now := time.Unix(10_000, 0)
	db := tsdb.NewDB(256)
	rule := Objective{
		Name: "latency", Series: "lat:p99", Op: OpLT, Threshold: 0.05,
		Window: 60 * time.Second, Budget: 0.10,
	}
	e, _ := newEval(t, db, now, rule)
	// 20 bad samples, then 40 good: the spike ended 40s ago; the 5s fast
	// window sees only good samples.
	feed(db, "lat:p99", now, append(repeat(0.2, 20), repeat(0.01, 40)...)...)
	st := e.Evaluate()[0]
	if st.BurnSlow < 3 {
		t.Fatalf("slow burn should still see the spike: %+v", st)
	}
	if st.BurnFast != 0 {
		t.Fatalf("fast burn should be clean: %+v", st)
	}
	if st.Violating {
		t.Fatalf("ended spike must not violate: %+v", st)
	}
}

// TestBurnRateWithSeriesGap models a daemon restart: the series stops, the
// evaluator clock keeps moving. Windows are anchored at the evaluator clock
// (WindowBefore), so stale data ages out instead of freezing its verdict.
func TestBurnRateWithSeriesGap(t *testing.T) {
	rule := Objective{
		Name: "latency", Series: "lat:p99", Op: OpLT, Threshold: 0.05,
		Window: 60 * time.Second, Budget: 0.10,
	}
	db := tsdb.NewDB(256)
	dataEnd := time.Unix(10_000, 0)
	feed(db, "lat:p99", dataEnd, repeat(0.2, 60)...) // all bad, then silence

	// Evaluated right at the data tail: violating.
	e, _ := newEval(t, db, dataEnd, rule)
	if st := e.Evaluate()[0]; !st.Violating {
		t.Fatalf("fresh bad data must violate: %+v", st)
	}

	// 2 minutes of silence later (restarted daemon, nothing re-fed): the
	// window is empty -> no-data, not violating, burn rates zero.
	later := dataEnd.Add(2 * time.Minute)
	e2, _ := newEval(t, db, later, rule)
	st := e2.Evaluate()[0]
	if !st.NoData || st.Violating || st.BurnSlow != 0 || st.BurnFast != 0 {
		t.Fatalf("silent series must age out to no-data: %+v", st)
	}

	// The daemon comes back and emits 10 good samples after the gap: only
	// the live samples are judged; the pre-gap bad run is outside the window.
	resumed := dataEnd.Add(3 * time.Minute)
	feed(db, "lat:p99", resumed, repeat(0.01, 10)...)
	e3, _ := newEval(t, db, resumed, rule)
	st = e3.Evaluate()[0]
	if st.NoData || st.Violating || st.BadSamples != 0 || st.Samples != 10 {
		t.Fatalf("post-gap recovery must judge only live samples: %+v", st)
	}
}

func TestZeroBudgetSaturates(t *testing.T) {
	now := time.Unix(10_000, 0)
	db := tsdb.NewDB(64)
	rule := Objective{
		Name: "conservation", Series: "bank_conservation_drift_credits",
		Op: OpEQ, Threshold: 0, Window: 60 * time.Second, Budget: 0,
	}
	e, _ := newEval(t, db, now, rule)
	feed(db, "bank_conservation_drift_credits", now, 0, 0, 0, 0, 7) // one drifted sample
	st := e.Evaluate()[0]
	if !st.Violating || st.BurnSlow != saturatedBurn || st.BurnFast != saturatedBurn {
		t.Fatalf("any drift under a zero budget must saturate: %+v", st)
	}

	db2 := tsdb.NewDB(64)
	e2, _ := newEval(t, db2, now, rule)
	feed(db2, "bank_conservation_drift_credits", now, 0, 0, 0, 0, 0)
	if st := e2.Evaluate()[0]; st.Violating || st.BurnSlow != 0 {
		t.Fatalf("zero drift must not burn: %+v", st)
	}
}

func TestHandler(t *testing.T) {
	now := time.Unix(10_000, 0)
	db := tsdb.NewDB(64)
	rule := Objective{
		Name: "latency", Series: "lat:p99", Op: OpLT, Threshold: 0.05,
		Window: 60 * time.Second, Budget: 0.10,
	}
	e, _ := newEval(t, db, now, rule)
	feed(db, "lat:p99", now, repeat(0.2, 60)...)

	rec := httptest.NewRecorder()
	e.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/slo", nil))
	if rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}
	var rep struct {
		Service    string `json:"service"`
		Violating  int    `json:"violating"`
		Objectives []struct {
			Violating bool `json:"violating"`
		} `json:"objectives"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, rec.Body.String())
	}
	if rep.Service != "test" || rep.Violating != 1 || len(rep.Objectives) != 1 || !rep.Objectives[0].Violating {
		t.Fatalf("report = %+v", rep)
	}

	rec = httptest.NewRecorder()
	e.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/slo", nil))
	if rec.Code != 405 {
		t.Fatalf("POST status = %d, want 405", rec.Code)
	}
}

func TestDefaultObjectivesShape(t *testing.T) {
	rules := DefaultObjectives()
	if len(rules) != 2 {
		t.Fatalf("want the 2 stock objectives a daemon can feed, got %d", len(rules))
	}
	seen := map[string]bool{}
	for _, r := range rules {
		if r.Name == "" || r.Series == "" || r.Window <= 0 {
			t.Fatalf("malformed stock objective: %+v", r)
		}
		if seen[r.Name] {
			t.Fatalf("duplicate objective name %q", r.Name)
		}
		seen[r.Name] = true
	}
	if !seen["money-conservation"] || !seen["request-latency-p99"] {
		t.Fatal("stock set must include the conservation and request-latency rules")
	}
}

func repeat(v float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// violations reads slo_violations_total for one objective out of a snapshot
// of reg.
func violations(reg *metrics.Registry, objective string) uint64 {
	for _, c := range reg.Snapshot().Counters {
		if c.Name == "slo_violations_total" && c.Labels["objective"] == objective {
			return c.Value
		}
	}
	return 0
}
