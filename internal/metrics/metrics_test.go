package metrics

import (
	"math"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", "Requests served.")
	if got := c.Value(); got != 0 {
		t.Fatalf("fresh counter = %d, want 0", got)
	}
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	// Same name resolves to the same counter.
	if r.Counter("requests_total", "Requests served.").Value() != 42 {
		t.Fatal("re-lookup did not return the same counter")
	}
	if got := counterIn(r.Snapshot(), "requests_total"); got != 42 {
		t.Fatalf("snapshot counter = %d, want 42", got)
	}
	if got := counterIn(r.Snapshot(), "missing_total"); got != 0 {
		t.Fatalf("snapshot counter (missing) = %d, want 0", got)
	}
}

// counterIn reads one counter child out of s by its SampleName; an absent
// child reads 0.
func counterIn(s Snapshot, sample string) uint64 {
	for _, c := range s.Counters {
		if SampleName(c.Name, c.Labels) == sample {
			return c.Value
		}
	}
	return 0
}

func TestCounterVecChildrenAreIndependent(t *testing.T) {
	r := NewRegistry()
	vec := r.CounterVec("http_requests_total", "Requests by route.", "route", "code")
	vec.With("/bids", "200").Add(3)
	vec.With("/bids", "400").Inc()
	vec.With("/status", "200").Add(7)
	snap := r.Snapshot()
	if got := counterIn(snap, `http_requests_total{code="200",route="/bids"}`); got != 3 {
		t.Fatalf(`/bids 200 = %d, want 3`, got)
	}
	if got := counterIn(snap, `http_requests_total{code="400",route="/bids"}`); got != 1 {
		t.Fatalf(`/bids 400 = %d, want 1`, got)
	}
	if got := counterIn(snap, `http_requests_total{code="200",route="/status"}`); got != 7 {
		t.Fatalf(`/status 200 = %d, want 7`, got)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("redeclaring a counter as a gauge did not panic")
		}
	}()
	r.Gauge("x_total", "")
}

func TestLabelArityPanics(t *testing.T) {
	r := NewRegistry()
	vec := r.CounterVec("y_total", "", "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("wrong label value count did not panic")
		}
	}()
	vec.With("only-one")
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("queue_depth", "Jobs queued.")
	g.Set(5)
	g.Inc()
	g.Add(2.5)
	g.Dec()
	if got := g.Value(); got != 7.5 {
		t.Fatalf("gauge = %v, want 7.5", got)
	}
	g.Set(-1)
	if got := g.Value(); got != -1 {
		t.Fatalf("gauge = %v, want -1", got)
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("latency_seconds", "Request latency.", []float64{0.01, 0.1, 1})
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Fatal("empty histogram quantile should be NaN")
	}
	// 100 observations uniformly inside (0, 0.01].
	for i := 0; i < 100; i++ {
		h.Observe(0.0001 * float64(i+1))
	}
	if got := h.Count(); got != 100 {
		t.Fatalf("count = %d, want 100", got)
	}
	if got, want := h.Sum(), 0.0001*100*101/2; math.Abs(got-want) > 1e-9 {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	// All observations are in the first bucket: p50 interpolates to its
	// midpoint, p99 close to its upper bound.
	if got := h.Quantile(0.50); math.Abs(got-0.005) > 1e-12 {
		t.Fatalf("p50 = %v, want 0.005", got)
	}
	if got := h.Quantile(1); got != 0.01 {
		t.Fatalf("p100 = %v, want 0.01", got)
	}

	// Push 100 observations beyond the last bound: they clamp to it.
	for i := 0; i < 100; i++ {
		h.Observe(5)
	}
	if got := h.Quantile(0.99); got != 1 {
		t.Fatalf("p99 with overflow mass = %v, want clamp to 1", got)
	}
	buckets := h.Buckets()
	if got := buckets[len(buckets)-1].Cumulative; got != 200 {
		t.Fatalf("+Inf cumulative = %d, want 200", got)
	}
	if !math.IsInf(buckets[len(buckets)-1].UpperBound, 1) {
		t.Fatal("last bucket bound must be +Inf")
	}
}

func TestHistogramInterpolationAcrossBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "", []float64{1, 2, 4})
	// 50 obs in (0,1], 30 in (1,2], 20 in (2,4].
	for i := 0; i < 50; i++ {
		h.Observe(0.5)
	}
	for i := 0; i < 30; i++ {
		h.Observe(1.5)
	}
	for i := 0; i < 20; i++ {
		h.Observe(3)
	}
	// Rank 90 falls 10 observations into the (2,4] bucket of 20: 2 + 4*(10/20)...
	// frac = (90-80)/20 = 0.5 -> 2 + (4-2)*0.5 = 3.
	if got := h.Quantile(0.90); math.Abs(got-3) > 1e-12 {
		t.Fatalf("p90 = %v, want 3", got)
	}
	// Rank 50 is exactly the top of the first bucket.
	if got := h.Quantile(0.50); math.Abs(got-1) > 1e-12 {
		t.Fatalf("p50 = %v, want 1", got)
	}
}

func TestNormalizeBounds(t *testing.T) {
	got := normalizeBounds([]float64{5, 1, 1, math.Inf(1), 2})
	want := []float64{1, 2, 5}
	if len(got) != len(want) {
		t.Fatalf("bounds = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bounds = %v, want %v", got, want)
		}
	}
}

func TestSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", "").Add(2)
	r.CounterVec("a_total", "", "k").With("v2").Add(1)
	r.CounterVec("a_total", "", "k").With("v1").Add(3)
	r.Gauge("g", "").Set(1.5)
	h := r.Histogram("h_seconds", "", []float64{1, 2})
	h.Observe(0.5)
	h.Observe(1.5)

	s := r.Snapshot()
	if len(s.Counters) != 3 || len(s.Gauges) != 1 || len(s.Histograms) != 1 {
		t.Fatalf("snapshot shape = %d/%d/%d, want 3/1/1",
			len(s.Counters), len(s.Gauges), len(s.Histograms))
	}
	// Families sorted by name, children by label value.
	if s.Counters[0].Name != "a_total" || s.Counters[0].Labels["k"] != "v1" || s.Counters[0].Value != 3 {
		t.Fatalf("first counter = %+v", s.Counters[0])
	}
	if s.Counters[2].Name != "b_total" || s.Counters[2].Value != 2 {
		t.Fatalf("last counter = %+v", s.Counters[2])
	}
	hs := s.Histograms[0]
	if hs.Count != 2 || hs.Sum != 2 {
		t.Fatalf("histogram sample = %+v", hs)
	}
	if math.IsNaN(hs.P50) || math.IsNaN(hs.P99) {
		t.Fatalf("quantiles not computed: %+v", hs)
	}
}

func TestDefaultRegistryIsSingleton(t *testing.T) {
	if Default() != Default() {
		t.Fatal("Default() must return the same registry")
	}
}

func TestHistogramExemplars(t *testing.T) {
	h := NewRegistry().Histogram("x_seconds", "probe", []float64{1, 10})
	if got := h.Exemplars(); len(got) != 3 {
		t.Fatalf("want one exemplar slot per bucket incl. +Inf, got %d", len(got))
	}
	h.ObserveExemplar(0.5, "aa")
	h.ObserveExemplar(0.7, "bb") // same bucket: last writer wins
	h.ObserveExemplar(100, "cc") // overflow bucket
	h.ObserveExemplar(5, "")     // no trace: observation counted, no exemplar
	got := h.Exemplars()
	if ex := got[0]; ex == nil || ex.TraceID != "bb" || ex.Value != 0.7 {
		t.Fatalf("bucket 0 exemplar = %+v, want trace bb value 0.7", ex)
	}
	if ex := got[1]; ex != nil {
		t.Fatalf("bucket 1 should have no exemplar (empty trace id), got %+v", ex)
	}
	if ex := got[2]; ex == nil || ex.TraceID != "cc" {
		t.Fatalf("overflow bucket exemplar = %+v, want trace cc", ex)
	}
	if h.Count() != 4 {
		t.Fatalf("count = %d, want 4", h.Count())
	}
}

// TestRegistryExemplars: the registry lists the exemplars of exactly the
// histogram children that hold one, under the child's sample name.
func TestRegistryExemplars(t *testing.T) {
	r := NewRegistry()
	r.Counter("ops_total", "ops").Inc()
	r.Histogram("quiet_seconds", "never traced", []float64{1}).Observe(0.5)
	v := r.HistogramVec("lat_seconds", "lat", []float64{1, 10}, "route")
	v.With("/a").ObserveExemplar(0.5, "aa")
	v.With("/a").ObserveExemplar(5, "bb")
	v.With("/b").Observe(0.5)
	got := r.Exemplars()
	exs := got[`lat_seconds{route="/a"}`]
	if len(got) != 1 || len(exs) != 2 || exs[0].TraceID != "aa" || exs[1].TraceID != "bb" || exs[1].Value != 5 {
		t.Fatalf("exemplars = %+v, want aa and bb under lat_seconds{route=\"/a\"} only", got)
	}
}

func TestSnapshotDelta(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops_total", "ops")
	g := r.Gauge("depth", "depth")
	h := r.Histogram("lat_seconds", "lat", []float64{1})
	c.Add(5)
	g.Set(2)
	h.Observe(0.5)
	prev := r.Snapshot()
	c.Add(7)
	g.Set(9)
	h.Observe(0.5)
	h.Observe(0.5)
	d := r.Snapshot().Delta(prev)
	if d.Counters[0].Value != 7 {
		t.Fatalf("counter delta = %d, want 7", d.Counters[0].Value)
	}
	if d.Gauges[0].Value != 9 {
		t.Fatalf("gauge must be copied absolute, got %g", d.Gauges[0].Value)
	}
	if d.Histograms[0].Count != 2 || d.Histograms[0].Sum != 1 {
		t.Fatalf("histogram delta = count %d sum %g, want 2/1", d.Histograms[0].Count, d.Histograms[0].Sum)
	}
	if b := d.Histograms[0].Buckets; len(b) != 2 || b[0].Cumulative != 2 || b[1].Cumulative != 2 {
		t.Fatalf("histogram delta buckets = %+v, want 2 in (0,1] and none above", b)
	}

	// Counter regression (daemon restart): delta resets to the new absolute.
	r2 := NewRegistry()
	c2 := r2.Counter("ops_total", "ops")
	c2.Add(3)
	d2 := r2.Snapshot().Delta(prev) // prev had ops_total=5
	if d2.Counters[0].Value != 3 {
		t.Fatalf("restart delta = %d, want absolute 3", d2.Counters[0].Value)
	}
}

// Quantile estimates the q-quantile (q in [0,1]) of everything observed so
// far; see bucketQuantile. Returns NaN when the histogram is empty.
func (h *Histogram) Quantile(q float64) float64 {
	return bucketQuantile(h.Buckets(), q)
}
