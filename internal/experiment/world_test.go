package experiment

import (
	"strings"
	"testing"
	"time"
)

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
