package experiment

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestWideGridRingAllocationBound gates what a wide grid's price history
// costs: the first tick of a 10 000-host world hands every host's feed ring
// its first sample, and the heap may grow by at most 16 MB over it. A ring
// that reserved its capacity at the first sample grew it by ≈ 115 MB here
// (720 slots of 16 bytes on each of 10 000 hosts); one that grows with what
// it holds keeps 8 slots a host.
func TestWideGridRingAllocationBound(t *testing.T) {
	const hosts, maxGrowth = 10_000, 16 << 20
	cfg := PaperWorld()
	cfg.Hosts = hosts
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	w.Engine.RunFor(w.Cluster.Interval())
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(w)
	if n := len(w.Agent.PriceHistory(0)); n != 1 {
		t.Fatalf("the feed holds %d samples of every host after one tick, want 1", n)
	}
	growth := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if growth > maxGrowth {
		t.Errorf("one tick of %d hosts grew the heap by %.1f MB, want <= %d MB", hosts, float64(growth)/(1<<20), maxGrowth>>20)
	} else {
		t.Logf("one tick of %d hosts grew the heap by %.1f MB", hosts, float64(growth)/(1<<20))
	}
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
