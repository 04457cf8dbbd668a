package metrics

import (
	"runtime"
	"sync"
	"testing"
)

// TestConcurrentHammer drives counters, gauges, histograms and vec lookups
// from many goroutines at once while a reader scrapes continuously. Run
// under -race it is the subsystem's data-race gate; without -race it still
// verifies that no increment is lost.
func TestConcurrentHammer(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hammer_total", "")
	vec := r.CounterVec("hammer_labeled_total", "", "worker")
	g := r.Gauge("hammer_gauge", "")
	h := r.Histogram("hammer_seconds", "", []float64{0.001, 0.01, 0.1, 1})

	workers := 4 * runtime.GOMAXPROCS(0)
	if workers < 8 {
		workers = 8
	}
	const perWorker = 5000

	var wg, scraper sync.WaitGroup
	stop := make(chan struct{})
	// Concurrent scraper: exposition + snapshot must be safe mid-write.
	scraper.Add(1)
	go func() {
		defer scraper.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = r.Snapshot()
			_ = r.WritePrometheus(discard{})
		}
	}()

	labels := []string{"a", "b", "c"}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			mine := vec.With(labels[w%len(labels)])
			for i := 0; i < perWorker; i++ {
				c.Inc()
				mine.Inc()
				g.Add(1)
				h.Observe(float64(i%100) / 1000)
				// Exercise the vec lookup path too, not just cached children.
				if i%64 == 0 {
					vec.With(labels[(w+i)%len(labels)]).Add(0)
				}
			}
		}(w)
	}
	// Writers first, then release the scraper.
	wg.Wait()
	close(stop)
	scraper.Wait()

	want := uint64(workers * perWorker)
	if got := c.Value(); got != want {
		t.Fatalf("unlabeled counter = %d, want %d (lost updates)", got, want)
	}
	var labeled uint64
	snap := r.Snapshot()
	for _, l := range labels {
		labeled += counterIn(snap, `hammer_labeled_total{worker="`+l+`"}`)
	}
	if labeled != want {
		t.Fatalf("labeled counters sum = %d, want %d", labeled, want)
	}
	if got := g.Value(); got != float64(want) {
		t.Fatalf("gauge = %v, want %v", got, float64(want))
	}
	if got := h.Count(); got != want {
		t.Fatalf("histogram count = %d, want %d", got, want)
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
