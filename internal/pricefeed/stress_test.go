package pricefeed

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// countSink records how many samples it saw; used to prove sink fan-out and
// to participate in the race stress below.
type countSink struct {
	mu   sync.Mutex
	n    int
	last float64
}

func (s *countSink) Observe(at time.Time, price float64) error {
	s.mu.Lock()
	s.n++
	s.last = price
	s.mu.Unlock()
	return nil
}

// TestHubAttachFansOut checks that ring-accepted samples reach every
// attached sink in order, and rejected samples reach none.
func TestHubAttachFansOut(t *testing.T) {
	h := NewHub(8)
	a, b := &countSink{}, &countSink{}
	h.Attach("h00", a)
	obs := h.Observer("h00")
	h.Attach("h00", b) // attach after Observer: must still be seen
	h.Attach("h00", nil)

	base := time.Unix(0, 0)
	obs(1.5, base.Add(time.Second))
	obs(2.5, base.Add(2*time.Second))
	obs(3.5, base.Add(time.Second)) // out of order: ring rejects, sinks skip

	if a.n != 2 || b.n != 2 {
		t.Fatalf("sink counts a=%d b=%d, want 2 each", a.n, b.n)
	}
	if a.last != 2.5 || b.last != 2.5 {
		t.Fatalf("sink last a=%v b=%v, want 2.5", a.last, b.last)
	}
	if h.Rejected() != 1 {
		t.Fatalf("rejected = %d, want 1", h.Rejected())
	}
}

// TestHubStressConcurrent hammers Observer, Attach, Ring, History, Hosts and
// MeanHistory from concurrent goroutines across many hosts. Run under -race:
// entry creation racing lookups under the one host-map mutex, and
// copy-on-write sink lists read by observers that take no hub lock, are the
// code under test.
func TestHubStressConcurrent(t *testing.T) {
	h := NewHub(32)
	const hosts = 37
	const writesPerHost = 300

	ids := make([]string, hosts)
	for i := range ids {
		ids[i] = fmt.Sprintf("h%03d", i)
	}

	var wg sync.WaitGroup
	// Writers: one goroutine per host, monotone timestamps per host.
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			obs := h.Observer(id)
			base := time.Unix(int64(i), 0)
			for k := 0; k < writesPerHost; k++ {
				obs(0.1+float64(k%17)*0.01, base.Add(time.Duration(k+1)*time.Second))
			}
		}(i, id)
	}
	// Sink attachers racing entry creation.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for _, id := range ids {
				h.Attach(id, &countSink{})
				_ = h.Ring(id).Len()
			}
		}(i)
	}
	// Readers: histories, mean histories, host lists, rings.
	stop := make(chan struct{})
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = h.History(ids[0], 10)
				_ = h.MeanHistory(ids[:5], 16)
				_ = h.Hosts()
				if _, ok := h.Ring(ids[3]).Last(); ok {
					_ = h.Ring(ids[3]).Prices()
				}
			}
		}()
	}

	done := make(chan struct{})
	go func() {
		// Wait only for writers+attachers (first hosts+4 Adds), then stop readers.
		// Simpler: poll until every ring is full-length.
		for {
			full := true
			for _, id := range ids {
				if h.Ring(id).Len() < 32 {
					full = false
					break
				}
			}
			if full {
				close(done)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	<-done
	close(stop)
	wg.Wait()

	for _, id := range ids {
		if got := h.Ring(id).Len(); got != 32 {
			t.Errorf("%s ring len %d, want 32 (capacity)", id, got)
		}
		if len(h.History(id, 0)) != 32 {
			t.Errorf("%s history incomplete", id)
		}
	}
	if got := len(h.Hosts()); got != hosts {
		t.Errorf("Hosts() = %d, want %d", got, hosts)
	}
	if h.Rejected() != 0 {
		t.Errorf("rejected %d samples under per-host monotone writers", h.Rejected())
	}
}
