package pricefeed

import (
	"errors"
	"math"
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

func TestHubObserverAndHistory(t *testing.T) {
	h := NewHub(16)
	obsA := h.Observer("hA")
	obsB := h.Observer("hB")
	for i := 0; i < 6; i++ {
		obsA(float64(i), at(i))
		obsB(10+float64(i), at(i))
	}
	// The B ring started one tick later than A in many real runs; model that
	// by giving A two extra early points for the tail alignment check.
	if got := h.History("hA", 3); len(got) != 3 || got[2] != 5 {
		t.Errorf("History = %v", got)
	}
	if got := h.History("ghost", 0); got != nil {
		t.Errorf("ghost history = %v", got)
	}
	hosts := h.Hosts()
	if len(hosts) != 2 || hosts[0] != "hA" || hosts[1] != "hB" {
		t.Errorf("hosts = %v", hosts)
	}
	mean := h.MeanHistory([]string{"hA", "hB"}, 0)
	if len(mean) != 6 {
		t.Fatalf("mean len = %d", len(mean))
	}
	// Element i averages i and 10+i.
	if mean[0] != 5 || mean[5] != 10 {
		t.Errorf("mean = %v", mean)
	}
	// Rejections are counted, not propagated.
	obsA(math.NaN(), at(100))
	obsA(1, at(0)) // out of order
	if h.Rejected() != 2 {
		t.Errorf("rejected = %d, want 2", h.Rejected())
	}
}

func TestHubMeanHistoryAlignsTails(t *testing.T) {
	h := NewHub(16)
	a := h.Observer("a")
	b := h.Observer("b")
	for i := 0; i < 8; i++ {
		a(1, at(i))
	}
	for i := 5; i < 8; i++ {
		b(3, at(i))
	}
	mean := h.MeanHistory([]string{"a", "b", "empty"}, 0)
	if len(mean) != 3 {
		t.Fatalf("mean len = %d, want 3 (shortest history)", len(mean))
	}
	for _, v := range mean {
		if v != 2 {
			t.Fatalf("mean = %v, want all 2", mean)
		}
	}
	if h.MeanHistory([]string{"empty"}, 0) != nil {
		t.Error("mean over empty hosts should be nil")
	}
}

// TestRingConcurrentFanIn drives one hub from several goroutines under the
// race detector: the acceptance criterion for `go test -race` with the new
// pricefeed fan-in.
func TestRingConcurrentFanIn(t *testing.T) {
	h := NewHub(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			obs := h.Observer("shared")
			for i := 0; i < 200; i++ {
				obs(float64(i), at(g*1000+i))
				_ = h.History("shared", 10)
				_ = h.MeanHistory([]string{"shared"}, 5)
			}
		}(g)
	}
	wg.Wait()
	samples := h.Ring("shared").Samples()
	for i := 1; i < len(samples); i++ {
		if !samples[i].At.After(samples[i-1].At) {
			t.Fatal("concurrent fan-in broke chronological order")
		}
	}
}
