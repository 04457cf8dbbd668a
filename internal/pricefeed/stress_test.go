package pricefeed

import (
	"sync"
	"testing"
	"time"

	"tycoongrid/internal/tsdb"
)

// TestFeedStressConcurrent hammers many hosts' ring observers, each from its
// own writer as a market plane's shards would, while readers take mean
// histories, prices and last samples across them. Run under -race: the
// observers share nothing but the ring locks and the two counters.
func TestFeedStressConcurrent(t *testing.T) {
	const hosts, capacity, writesPerHost = 37, 32, 300
	rings := make([]*tsdb.Ring, hosts)
	for i := range rings {
		rings[i] = tsdb.NewRing(capacity)
	}
	rejected := mSamplesRejected.Value()

	var writers sync.WaitGroup
	for i, r := range rings {
		writers.Add(1)
		go func(i int, obs func(float64, time.Time)) {
			defer writers.Done()
			base := time.Unix(int64(i), 0)
			for k := 0; k < writesPerHost; k++ {
				obs(0.1+float64(k%17)*0.01, base.Add(time.Duration(k+1)*time.Second))
			}
		}(i, Observer(r))
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 6; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = MeanHistory(rings[:5], 16)
				_, _ = rings[3].Latest()
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()

	for i, r := range rings {
		if got := r.Len(); got != capacity {
			t.Errorf("ring %d holds %d samples, want %d (capacity)", i, got, capacity)
		}
	}
	if got := mSamplesRejected.Value() - rejected; got != 0 {
		t.Errorf("rejected %d samples under per-host monotone writers", got)
	}
}
