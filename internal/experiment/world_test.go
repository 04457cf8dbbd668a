package experiment

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"tycoongrid/internal/metrics"
)

// TestWideGridRingAllocationBound gates "no reader, no ring": a world without
// a meta-scheduler reads no agent price history, so the first tick of a
// 10 000-host world records no sample and the heap may grow by at most
// maxGrowth over it. What it grows by, ≈ 1 MB, is the market plane's clear
// list, kept for every later tick. An agent that hung a ring on every host in
// New grew it by ≈ 2.2 MB here (an 8-slot buffer a host at the first sample),
// and by ≈ 115 MB when each ring reserved its 720 slots.
func TestWideGridRingAllocationBound(t *testing.T) {
	const hosts, maxGrowth = 10_000, 1536 << 10
	cfg := PaperWorld()
	cfg.Hosts = hosts
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if w.Meta != nil {
		t.Fatal("a single-partition world built a meta-scheduler")
	}
	var before, after runtime.MemStats
	recorded := samplesRecorded()
	runtime.GC()
	runtime.ReadMemStats(&before)
	w.Engine.RunFor(w.Cluster.Interval())
	w.Cluster.Sync()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(w)
	if n := samplesRecorded() - recorded; n != 0 {
		t.Errorf("one tick of %d hosts nobody reads recorded %d price samples, want 0", hosts, n)
	}
	growth := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if growth > maxGrowth {
		t.Errorf("one tick of %d hosts grew the heap by %.2f MB, want <= %.2f MB", hosts, float64(growth)/(1<<20), float64(maxGrowth)/(1<<20))
	} else {
		t.Logf("one tick of %d hosts grew the heap by %.2f MB", hosts, float64(growth)/(1<<20))
	}
}

// samplesRecorded reads pricefeed_samples_recorded_total out of a snapshot of
// the default registry.
func samplesRecorded() uint64 {
	for _, c := range metrics.Default().Snapshot().Counters {
		if c.Name == "pricefeed_samples_recorded_total" {
			return c.Value
		}
	}
	return 0
}

// A run's price trace holds every tick of the run or fails the run: a sample
// the ring has no room for, or one it refuses, is counted by check and never
// dropped silently.
func TestRunPricesFailsALostSample(t *testing.T) {
	const run = 30 * time.Minute
	world := func(t *testing.T) (*World, *runPrices) {
		t.Helper()
		cfg := PaperWorld()
		cfg.Hosts = 3
		w, err := NewWorld(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rp, err := w.recordPrices(run)
		if err != nil {
			t.Fatal(err)
		}
		return w, rp
	}

	t.Run("whole run", func(t *testing.T) {
		w, rp := world(t)
		w.Engine.RunFor(run)
		w.Cluster.Sync()
		if err := rp.check(); err != nil {
			t.Fatal(err)
		}
		want := int(run / w.Cluster.Interval())
		for _, id := range w.Cluster.HostIDs() {
			if got := len(rp.rings[id].Prices()); got != want {
				t.Errorf("%s holds %d samples, want %d", id, got, want)
			}
		}
	})

	t.Run("longer than the run", func(t *testing.T) {
		w, rp := world(t)
		w.Engine.RunFor(run + 2*w.Cluster.Interval())
		w.Cluster.Sync()
		err := rp.check()
		if err == nil || !strings.Contains(err.Error(), "refused 6 samples") {
			t.Fatalf("check = %v, want 2 samples refused on each of 3 hosts", err)
		}
	})

	t.Run("out of order", func(t *testing.T) {
		w, rp := world(t)
		w.Engine.RunFor(run / 2)
		w.Cluster.Sync()
		h, err := w.Cluster.Host(w.Cluster.HostIDs()[0])
		if err != nil {
			t.Fatal(err)
		}
		h.Market.Tick(w.Engine.Now().Add(-w.Cluster.Interval()))
		err = rp.check()
		if err == nil || !strings.Contains(err.Error(), "refused 1 samples") {
			t.Fatalf("check = %v, want the one older sample refused", err)
		}
	})
}
