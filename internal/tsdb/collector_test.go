package tsdb

import (
	"testing"
	"time"

	"tycoongrid/internal/metrics"
)

// fakeClock steps a deterministic clock by a fixed interval per reading.
type fakeClock struct {
	at   time.Time
	step time.Duration
}

func (f *fakeClock) now() time.Time {
	f.at = f.at.Add(f.step)
	return f.at
}

func TestCollectorDerivesSeries(t *testing.T) {
	reg := metrics.NewRegistry()
	c := reg.Counter("clears_total", "clears")
	g := reg.Gauge("price", "price")
	h := reg.Histogram("lat_seconds", "lat", []float64{0.01, 0.1, 1})

	db := NewDB(128)
	clock := &fakeClock{at: time.Unix(1000, 0), step: 5 * time.Second}
	col := NewCollector(reg, db, clock.now)

	g.Set(0.5)
	col.Collect() // seeds deltas; gauge recorded

	c.Add(50) // 50 events over the next 5s interval -> 10/s
	g.Set(0.75)
	for i := 0; i < 100; i++ {
		h.Observe(0.05)
	}
	col.Collect()

	rate, ok := db.Lookup("clears_total" + SuffixRate)
	if !ok {
		t.Fatalf("missing rate series; have %v", db.Names())
	}
	if last, _ := rate.Latest(); last.V != 10 {
		t.Fatalf("counter rate = %g, want 10/s", last.V)
	}
	price, ok := db.Lookup("price")
	if !ok {
		t.Fatal("missing gauge series")
	}
	if price.Len() != 2 {
		t.Fatalf("gauge points = %d, want 2 (recorded from the seed scrape on)", price.Len())
	}
	if last, _ := price.Latest(); last.V != 0.75 {
		t.Fatalf("gauge = %g, want 0.75", last.V)
	}
	hr, ok := db.Lookup("lat_seconds" + SuffixRate)
	if !ok {
		t.Fatal("missing histogram rate series")
	}
	if last, _ := hr.Latest(); last.V != 20 {
		t.Fatalf("histogram rate = %g, want 20/s", last.V)
	}
	if _, ok := db.Lookup("lat_seconds" + SuffixP99); !ok {
		t.Fatal("missing histogram p99 series")
	}
	mean, ok := db.Lookup("lat_seconds" + SuffixMean)
	if !ok {
		t.Fatal("missing histogram mean series")
	}
	if last, _ := mean.Latest(); last.V < 0.049 || last.V > 0.051 {
		t.Fatalf("interval mean = %g, want ~0.05", last.V)
	}
}

// TestCollectorDeterministicUnderInjectedClock runs two identical workloads
// under two identical injected clocks and requires identical stored series.
func TestCollectorDeterministicUnderInjectedClock(t *testing.T) {
	run := func() map[string][]Point {
		reg := metrics.NewRegistry()
		c := reg.Counter("ops_total", "ops")
		g := reg.Gauge("depth", "d")
		db := NewDB(64)
		clock := &fakeClock{at: time.Unix(42, 0), step: 2 * time.Second}
		col := NewCollector(reg, db, clock.now)
		for i := 0; i < 10; i++ {
			c.Add(uint64(i))
			g.Set(float64(i * i))
			col.Collect()
		}
		out := map[string][]Point{}
		for _, name := range db.Names() {
			s, _ := db.Lookup(name)
			out[name] = s.Since(0)
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("series sets differ: %d vs %d", len(a), len(b))
	}
	for name, pa := range a {
		pb := b[name]
		if len(pa) != len(pb) {
			t.Fatalf("%s: %d vs %d points", name, len(pa), len(pb))
		}
		for i := range pa {
			if pa[i] != pb[i] {
				t.Fatalf("%s[%d]: %+v vs %+v", name, i, pa[i], pb[i])
			}
		}
	}
}

// TestCollectorP99IsPerInterval: the :p99 series is the 99th percentile of
// what was observed since the previous collect. The first collect has no
// previous one and records the lifetime value; an interval without
// observations records nothing.
func TestCollectorP99IsPerInterval(t *testing.T) {
	reg := metrics.NewRegistry()
	h := reg.Histogram("lat_seconds", "lat", []float64{0.01, 0.1, 1})
	db := NewDB(16)
	clock := &fakeClock{at: time.Unix(1000, 0), step: 5 * time.Second}
	col := NewCollector(reg, db, clock.now)

	for i := 0; i < 100; i++ {
		h.Observe(0.5)
	}
	col.Collect()
	p99, ok := db.Lookup("lat_seconds" + SuffixP99)
	if !ok || p99.Len() != 1 {
		t.Fatalf("the first collect must record the lifetime p99; have %v", db.Names())
	}
	if last, _ := p99.Latest(); last.V < 0.1 {
		t.Fatalf("first p99 = %g, want inside (0.1, 1]", last.V)
	}

	col.Collect() // nothing observed
	if p99.Len() != 1 {
		t.Fatalf("an idle interval appended a p99 point: %v", p99.Since(0))
	}

	for i := 0; i < 1000; i++ {
		h.Observe(0.005)
	}
	col.Collect()
	if last, _ := p99.Latest(); p99.Len() != 2 || last.V > 0.01 {
		t.Fatalf("p99 of 1000 fast observations = %g (%d points), want <= 0.01; the 100 slow ones were an interval ago", last.V, p99.Len())
	}
}
