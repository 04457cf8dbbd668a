package pricefeed

import (
	"errors"
	"math"
	"slices"
	"sync"
	"testing"
	"time"
)

var t0 = time.Date(2006, 1, 1, 0, 0, 0, 0, time.UTC)

func at(i int) time.Time { return t0.Add(time.Duration(i) * 10 * time.Second) }

func TestNewRingValidation(t *testing.T) {
	if _, err := NewRing(0); err == nil {
		t.Error("capacity 0 accepted")
	}
	if _, err := NewRing(-3); err == nil {
		t.Error("negative capacity accepted")
	}
}

func TestRingRejectsBadSamples(t *testing.T) {
	r, err := NewRing(8)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Observe(at(0), 1.5); err != nil {
		t.Fatal(err)
	}
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
	}
	for _, c := range cases {
		if err := r.Observe(c.at, c.price); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
	if r.Len() != 1 {
		t.Errorf("rejected samples mutated the ring: len = %d", r.Len())
	}
}

func TestRingBoundedAndChronological(t *testing.T) {
	r, err := NewRing(4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := r.Observe(at(i), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if r.Len() != 4 {
		t.Fatalf("len = %d, want 4", r.Len())
	}
	got := r.Prices()
	want := []float64{6, 7, 8, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("prices = %v, want %v", got, want)
		}
	}
	samples := r.Samples()
	for i := 1; i < len(samples); i++ {
		if !samples[i].At.After(samples[i-1].At) {
			t.Fatalf("samples not strictly increasing: %v", samples)
		}
	}
	last, ok := r.Last()
	if !ok || last.Price != 9 {
		t.Errorf("last = %+v ok=%v", last, ok)
	}
}

// TestRingWindowBounds: a window is (from, to] — a sample at from is out, one
// at to is in — on a ring that has wrapped, so the window spans the buffer's
// two runs, and on a clock in a non-UTC zone.
func TestRingWindowBounds(t *testing.T) {
	zone := time.FixedZone("CEST", 2*3600)
	for name, start := range map[string]time.Time{"utc": t0, "zoned": time.Date(2026, 9, 27, 23, 59, 58, 0, zone)} {
		t.Run(name, func(t *testing.T) {
			r, _ := NewRing(6)
			tick := func(i int) time.Time { return start.Add(time.Duration(i) * time.Minute) }
			for i := 0; i < 10; i++ { // holds 4..9, wrapped after 7
				if err := r.Observe(tick(i), float64(i)); err != nil {
					t.Fatal(err)
				}
			}
			cases := []struct {
				name     string
				from, to time.Time
				want     []float64
			}{
				{"from excluded, to included", tick(5), tick(8), []float64{6, 7, 8}},
				{"across the wrap", tick(3), tick(9), []float64{4, 5, 6, 7, 8, 9}},
				{"between samples", tick(5).Add(time.Second), tick(7).Add(-time.Second), []float64{6}},
				{"one instant", tick(7), tick(7), nil},
				{"to before from", tick(8), tick(5), nil},
				{"evicted range", tick(0), tick(3), nil},
				{"after the newest", tick(9), tick(20), nil},
				{"in the other zone", tick(5).UTC(), tick(6).In(time.FixedZone("EST", -5*3600)), []float64{6}},
				{"unrepresentable ends", time.Time{}, time.Date(2300, 1, 1, 0, 0, 0, 0, time.UTC), []float64{4, 5, 6, 7, 8, 9}},
			}
			for _, c := range cases {
				got := r.Window(c.from, c.to)
				if len(got) != len(c.want) {
					t.Errorf("%s: Window = %v, want %v", c.name, got, c.want)
					continue
				}
				for i := range c.want {
					if got[i] != c.want[i] {
						t.Errorf("%s: Window = %v, want %v", c.name, got, c.want)
						break
					}
				}
			}
		})
	}
	empty, _ := NewRing(4)
	if got := empty.Window(t0, at(100)); len(got) != 0 {
		t.Errorf("empty ring: Window = %v", got)
	}
}

// TestRingObserverRecordsAndCounts: the observer a ring hangs on its market
// records every clear and counts it; a sample the ring refuses is counted as
// rejected, not recorded, and leaves the ring as it was. The bench's Hub
// observer is the same path.
func TestRingObserverRecordsAndCounts(t *testing.T) {
	r, err := NewRing(16)
	if err != nil {
		t.Fatal(err)
	}
	recorded, rejected := mSamplesRecorded.Value(), mSamplesRejected.Value()
	obs := r.Observer()
	for i := 0; i < 6; i++ {
		obs(float64(i), at(i))
	}
	obs(math.NaN(), at(100))
	obs(1, at(0)) // out of order
	if got := r.Prices(); !slices.Equal(got, []float64{0, 1, 2, 3, 4, 5}) {
		t.Errorf("ring holds %v, want 0..5", got)
	}
	if got := mSamplesRecorded.Value() - recorded; got != 6 {
		t.Errorf("recorded %d samples, want 6", got)
	}
	if got := mSamplesRejected.Value() - rejected; got != 2 {
		t.Errorf("rejected %d samples, want 2", got)
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
	ring := func(from, to int, price float64) *Ring {
		r, _ := NewRing(16)
		for i := from; i < to; i++ {
			if err := r.Observe(at(i), price+float64(i)); err != nil {
				t.Fatal(err)
			}
		}
		return r
	}
	a, b, empty := ring(0, 8, 0), ring(5, 8, 10), ring(0, 0, 0)
	// Element i averages a's and b's i-th newest: (5+15)/2, (6+16)/2, (7+17)/2.
	if got := MeanHistory([]*Ring{a, b, empty}, 0); !slices.Equal(got, []float64{10, 11, 12}) {
		t.Errorf("mean = %v, want [10 11 12] (the shortest history, tails aligned)", got)
	}
	if got := MeanHistory([]*Ring{a, b}, 2); !slices.Equal(got, []float64{11, 12}) {
		t.Errorf("mean of the newest 2 = %v, want [11 12]", got)
	}
	if got := MeanHistory([]*Ring{a}, 0); !slices.Equal(got, a.Prices()) {
		t.Errorf("mean of one ring = %v, want its prices %v", got, a.Prices())
	}
	if MeanHistory([]*Ring{empty}, 0) != nil || MeanHistory(nil, 0) != nil {
		t.Error("mean over empty rings should be nil")
	}
}

// TestRingConcurrentFanIn drives one ring's observer from several goroutines
// while others read the mean history, under the race detector.
func TestRingConcurrentFanIn(t *testing.T) {
	r, _ := NewRing(64)
	obs := r.Observer()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				obs(float64(i), at(g*1000+i))
				_ = MeanHistory([]*Ring{r}, 5)
			}
		}(g)
	}
	wg.Wait()
	samples := r.Samples()
	for i := 1; i < len(samples); i++ {
		if !samples[i].At.After(samples[i-1].At) {
			t.Fatal("concurrent fan-in broke chronological order")
		}
	}
}
