package pricefeed

import (
	"errors"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"tycoongrid/internal/tsdb"
)

var t0 = time.Date(2006, 1, 1, 0, 0, 0, 0, time.UTC)

func at(i int) time.Time { return t0.Add(time.Duration(i) * 10 * time.Second) }

// ring hangs a fresh ring's observer, as auction.Market.History does.
func ring(capacity int) (*tsdb.Ring, func(float64, time.Time)) {
	r := tsdb.NewRing(capacity)
	return r, Observer(r)
}

func prices(r *tsdb.Ring) []float64 { return tsdb.Values(r.Since(math.MinInt64)) }

func TestCheckRejectsBadSamples(t *testing.T) {
	cases := []struct {
		name  string
		at    time.Time
		price float64
		want  error
	}{
		{"nan", at(1), math.NaN(), ErrNonFinite},
		{"+inf", at(1), math.Inf(1), ErrNonFinite},
		{"-inf", at(1), math.Inf(-1), ErrNonFinite},
		{"negative", at(1), -0.1, ErrNegative},
		{"out-of-order", at(0).Add(-time.Second), 1, ErrOutOfOrder},
		{"duplicate", at(0), 1, ErrDuplicate},
		{"year 1", time.Time{}, 1, ErrTimeRange},
		{"year 1600", time.Date(1600, 1, 1, 0, 0, 0, 0, time.UTC), 1, ErrTimeRange},
		{"year 2300", time.Date(2300, 1, 1, 0, 0, 0, 0, time.UTC), 1, ErrTimeRange},
		{"good", at(1), 0, nil},
	}
	for _, c := range cases {
		if err := Check(c.price, c.at, at(0), true); !errors.Is(err, c.want) || (err == nil) != (c.want == nil) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
	if err := Check(1, at(0).Add(-time.Hour), at(0), false); err != nil {
		t.Errorf("with no sample held, the order is not checked: %v", err)
	}
}

// TestObserverRefusesWhatCheckRefuses: a sample Check refuses — a negative
// price the ring itself would hold, an unrepresentable instant — leaves the
// ring as it was and counts in its Lost.
func TestObserverRefusesWhatCheckRefuses(t *testing.T) {
	r, obs := ring(8)
	obs(1.5, at(0))
	for _, at := range []time.Time{{}, time.Date(1600, 1, 1, 0, 0, 0, 0, time.UTC), time.Date(2300, 1, 1, 0, 0, 0, 0, time.UTC)} {
		obs(1, at)
	}
	obs(-0.1, at(1))
	if r.Len() != 1 || r.Lost() != 4 {
		t.Errorf("after 4 refusals: len %d, lost %d, want 1 and 4", r.Len(), r.Lost())
	}
}

// TestObserverKeepsTheInstant: a time.Now() sample comes back as the same
// instant; only its zone and monotonic reading, which a stored history has
// no use for, are gone.
func TestObserverKeepsTheInstant(t *testing.T) {
	r, obs := ring(4)
	now := time.Now()
	obs(1, now)
	if got, _ := r.Latest(); !time.Unix(0, got.T).Equal(now) {
		t.Errorf("held instant %v, want %v", time.Unix(0, got.T), now)
	}
}

// TestRingObserverRecordsAndCounts: the observer a ring hangs on its market
// records every clear and counts it; a sample the ring refuses is counted as
// rejected, not recorded, and leaves the ring as it was. The bench's Hub
// observer is the same path.
func TestRingObserverRecordsAndCounts(t *testing.T) {
	r, obs := ring(16)
	recorded, rejected := mSamplesRecorded.Value(), mSamplesRejected.Value()
	for i := 0; i < 6; i++ {
		obs(float64(i), at(i))
	}
	obs(math.NaN(), at(100))
	obs(1, at(0))  // out of order
	obs(-1, at(9)) // negative
	if got := prices(r); !slices.Equal(got, []float64{0, 1, 2, 3, 4, 5}) {
		t.Errorf("ring holds %v, want 0..5", got)
	}
	if got := mSamplesRecorded.Value() - recorded; got != 6 {
		t.Errorf("recorded %d samples, want 6", got)
	}
	if got := mSamplesRejected.Value() - rejected; got != 3 || r.Lost() != 3 {
		t.Errorf("rejected %d samples, lost %d, want 3 and 3", got, r.Lost())
	}
}

// TestHubObserverRecordsIntoAFreshRing: the Hub that bench/replay.go times is
// a fresh ring's Observer per call, so two observers of one host name share
// nothing, and each records and counts its samples like any ring's.
func TestHubObserverRecordsIntoAFreshRing(t *testing.T) {
	recorded, rejected := mSamplesRecorded.Value(), mSamplesRejected.Value()
	h := NewHub(0)
	a, b := h.Observer("replay-host"), h.Observer("replay-host")
	a(1, at(1))
	b(1, at(1)) // a duplicate of a's sample, but not of anything in b's ring
	a(1, at(1))
	if got := mSamplesRecorded.Value() - recorded; got != 2 {
		t.Errorf("recorded %d samples, want 2", got)
	}
	if got := mSamplesRejected.Value() - rejected; got != 1 {
		t.Errorf("rejected %d samples, want 1 (a's duplicate)", got)
	}
}

func TestMeanHistoryAlignsTails(t *testing.T) {
	feed := func(from, to int, price float64) *tsdb.Ring {
		r, obs := ring(16)
		for i := from; i < to; i++ {
			obs(price+float64(i), at(i))
		}
		return r
	}
	a, b, empty := feed(0, 8, 0), feed(5, 8, 10), feed(0, 0, 0)
	// Element i averages a's and b's i-th newest: (5+15)/2, (6+16)/2, (7+17)/2.
	if got := MeanHistory([]*tsdb.Ring{a, b, empty}, 0); !slices.Equal(got, []float64{10, 11, 12}) {
		t.Errorf("mean = %v, want [10 11 12] (the shortest history, tails aligned)", got)
	}
	if got := MeanHistory([]*tsdb.Ring{a, b}, 2); !slices.Equal(got, []float64{11, 12}) {
		t.Errorf("mean of the newest 2 = %v, want [11 12]", got)
	}
	if got := MeanHistory([]*tsdb.Ring{a}, 0); !slices.Equal(got, prices(a)) {
		t.Errorf("mean of one ring = %v, want its prices %v", got, prices(a))
	}
	if MeanHistory([]*tsdb.Ring{empty}, 0) != nil || MeanHistory(nil, 0) != nil {
		t.Error("mean over empty rings should be nil")
	}
}

// TestRingConcurrentFanIn drives one ring's observer from several goroutines
// while others read the mean history, under the race detector.
func TestRingConcurrentFanIn(t *testing.T) {
	r, obs := ring(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				obs(float64(i), at(g*1000+i))
				_ = MeanHistory([]*tsdb.Ring{r}, 5)
			}
		}(g)
	}
	wg.Wait()
	pts := r.Since(math.MinInt64)
	for i := 1; i < len(pts); i++ {
		if pts[i].T <= pts[i-1].T {
			t.Fatal("concurrent fan-in broke chronological order")
		}
	}
}
