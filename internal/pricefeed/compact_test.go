package pricefeed

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
	"time"
	"unsafe"

	"tycoongrid/internal/rng"
)

// refRing is the ring as it stood before samples were stored pointer-free:
// whole time.Time values in the buffer, the same validation. The compact
// ring is differentially tested against it.
type refRing struct {
	buf  []Sample
	next int
	n    int
	last time.Time
	seen bool
}

func (r *refRing) observe(at time.Time, price float64) error {
	if math.IsNaN(price) || math.IsInf(price, 0) {
		return ErrNonFinite
	}
	if price < 0 {
		return ErrNegative
	}
	if r.seen {
		if at.Before(r.last) {
			return ErrOutOfOrder
		}
		if at.Equal(r.last) {
			return ErrDuplicate
		}
	}
	r.buf[r.next] = Sample{At: at, Price: price}
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
	r.last, r.seen = at, true
	return nil
}

func (r *refRing) samples() []Sample {
	out := make([]Sample, 0, r.n)
	start := r.next - r.n
	if start < 0 {
		start += len(r.buf)
	}
	for i := 0; i < r.n; i++ {
		out = append(out, r.buf[(start+i)%len(r.buf)])
	}
	return out
}

// window is the linear scan a Window answers by binary search: the prices
// held in (from, to].
func (r *refRing) window(from, to time.Time) []float64 {
	var out []float64
	for _, s := range r.samples() {
		if s.At.After(from) && !s.At.After(to) {
			out = append(out, s.Price)
		}
	}
	return out
}

// TestRingMatchesTimeValuedReference feeds the compact ring and the reference
// the same seeded stream — good samples, every kind of bad one, enough to
// wrap several times — on simulation time (UTC) and on a wall clock in a
// non-UTC zone, and compares verdicts, contents and a random window after
// every operation.
func TestRingMatchesTimeValuedReference(t *testing.T) {
	clocks := map[string]time.Time{
		"sim-utc":    time.Date(2006, time.June, 19, 0, 0, 0, 0, time.UTC),
		"wall-zoned": time.Date(2026, time.September, 27, 23, 59, 58, 987654321, time.FixedZone("CEST", 2*3600)),
		"pre-epoch":  time.Date(1969, time.December, 31, 23, 59, 50, 5, time.FixedZone("EST", -5*3600)),
	}
	for name, start := range clocks {
		t.Run(name, func(t *testing.T) {
			src := rng.New(11)
			ring, err := NewRing(16)
			if err != nil {
				t.Fatal(err)
			}
			ref := &refRing{buf: make([]Sample, 16)}
			now := start
			for op := 0; op < 2000; op++ {
				at, price := now, src.Uniform(0, 3)
				switch src.Intn(12) {
				case 0:
					at = now.Add(-time.Duration(1+src.Intn(30)) * time.Second) // stale
				case 1:
					// same instant as the newest sample: a duplicate
				case 2:
					price = []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.5}[src.Intn(4)]
				default:
					now = now.Add(time.Duration(1+src.Intn(20_000_000_000)) * time.Nanosecond)
					at = now
				}
				got, want := ring.Observe(at, price), ref.observe(at, price)
				if (got == nil) != (want == nil) || (want != nil && !errors.Is(got, want)) {
					t.Fatalf("op %d: Observe(%v, %v) = %v, reference %v", op, at, price, got, want)
				}
				if want == nil {
					now = at
				}

				wantSamples := ref.samples()
				gotSamples := ring.Samples()
				if len(gotSamples) != len(wantSamples) || ring.Len() != len(wantSamples) {
					t.Fatalf("op %d: %d samples (Len %d), reference %d", op, len(gotSamples), ring.Len(), len(wantSamples))
				}
				prices := ring.Prices()
				for i, w := range wantSamples {
					// == on time.Time: same instant, same zone pointer, same
					// internal representation — not merely Equal.
					if gotSamples[i] != w {
						t.Fatalf("op %d: sample %d = %v, reference %v", op, i, gotSamples[i], w)
					}
					if prices[i] != w.Price {
						t.Fatalf("op %d: Prices()[%d] = %v, reference %v", op, i, prices[i], w.Price)
					}
				}
				// A window somewhere around the held span, its ends on a
				// sample or between two.
				from := now.Add(-time.Duration(src.Intn(int(8 * time.Minute))))
				if len(wantSamples) > 0 && src.Intn(3) == 0 {
					from = wantSamples[src.Intn(len(wantSamples))].At
				}
				to := from.Add(time.Duration(src.Intn(int(3 * time.Minute))))
				gotW, wantW := ring.Window(from, to), ref.window(from, to)
				if len(gotW) != len(wantW) {
					t.Fatalf("op %d: Window(%v, %v) = %v, reference %v", op, from, to, gotW, wantW)
				}
				for i := range wantW {
					if gotW[i] != wantW[i] {
						t.Fatalf("op %d: Window(%v, %v) = %v, reference %v", op, from, to, gotW, wantW)
					}
				}
			}
			if ring.Len() != ring.Capacity() {
				t.Fatalf("stream never filled the ring: %d of %d", ring.Len(), ring.Capacity())
			}
		})
	}
}

// TestRingGrowsWithWhatItHolds walks rings of capacity 1, 8 (the first
// buffer exactly), 9 (one past it) and 720 (an agent's default) across every
// growth boundary and twice around the wrap, against the reference ring,
// which reserves its capacity up front. After every sample — and after a
// duplicate the ring must refuse without growing — contents and a
// window over everything agree, and the buffer holds at most twice the
// samples (the first 8 slots aside) and never more than the capacity.
// TestRingAllocationBound bounds what a one-sample ring keeps.
func TestRingGrowsWithWhatItHolds(t *testing.T) {
	for _, capacity := range []int{1, firstSlots, firstSlots + 1, DefaultCapacity} {
		t.Run(fmt.Sprint(capacity), func(t *testing.T) {
			ring, err := NewRing(capacity)
			if err != nil {
				t.Fatal(err)
			}
			if ring.buf != nil {
				t.Fatalf("a new ring holds a %d-slot buffer, want none", len(ring.buf))
			}
			ref := &refRing{buf: make([]Sample, capacity)}
			start := time.Date(2006, time.June, 19, 0, 0, 0, 0, time.UTC)
			for i := 1; i <= 2*capacity+3; i++ {
				at := start.Add(time.Duration(i) * 10 * time.Second)
				if got, want := ring.Observe(at, float64(i)/3600), ref.observe(at, float64(i)/3600); got != want {
					t.Fatalf("sample %d: Observe = %v, reference %v", i, got, want)
				}
				before := len(ring.buf)
				if err := ring.Observe(at, 1); !errors.Is(err, ErrDuplicate) || len(ring.buf) != before {
					t.Fatalf("sample %d: a duplicate gave %v and moved the buffer from %d to %d slots", i, err, before, len(ring.buf))
				}
				want := ref.samples()
				got := ring.Samples()
				if len(got) != len(want) || ring.Len() != len(want) {
					t.Fatalf("sample %d: %d samples (Len %d), reference %d", i, len(got), ring.Len(), len(want))
				}
				for k := range want {
					if got[k] != want[k] {
						t.Fatalf("sample %d: sample %d = %v, reference %v", i, k, got[k], want[k])
					}
				}
				if got, want := ring.Window(start, at), ref.window(start, at); !slices.Equal(got, want) || len(got) != len(ring.Prices()) {
					t.Fatalf("sample %d: Window over everything = %v, reference %v", i, got, want)
				}
				n, slots := len(want), len(ring.buf)
				if slots < n || slots > capacity || slots > max(firstSlots, 2*n-1) {
					t.Fatalf("sample %d: %d held in a %d-slot buffer (capacity %d)", i, n, slots, capacity)
				}
			}
			if len(ring.buf) != capacity {
				t.Errorf("after %d samples the buffer holds %d slots, want the capacity %d", 2*capacity+3, len(ring.buf), capacity)
			}
		})
	}
}

// TestRingAllocationBound: a host whose market cleared once costs its ring
// two allocations, the ring and a buffer of at most 128 bytes, not its
// capacity's 11.5 KB; and a full ring observes in place.
func TestRingAllocationBound(t *testing.T) {
	var ring *Ring
	at := time.Date(2006, time.June, 19, 0, 0, 0, 0, time.UTC)
	allocs := testing.AllocsPerRun(100, func() {
		ring, _ = NewRing(DefaultCapacity)
		_ = ring.Observe(at, 1)
	})
	if allocs > 2 {
		t.Errorf("a %d-capacity ring and its first sample: %v allocations, want <= 2", DefaultCapacity, allocs)
	}
	if bytes := cap(ring.buf) * int(unsafe.Sizeof(slot{})); bytes > 128 {
		t.Errorf("a %d-capacity ring holding one sample keeps %d bytes of buffer, want <= 128", DefaultCapacity, bytes)
	}
	for i := 1; i < DefaultCapacity; i++ {
		if err := ring.Observe(at.Add(time.Duration(i)*time.Second), 1); err != nil {
			t.Fatal(err)
		}
	}
	i := DefaultCapacity
	allocs = testing.AllocsPerRun(100, func() {
		_ = ring.Observe(at.Add(time.Duration(i)*time.Second), 1)
		i++
	})
	if allocs != 0 || ring.Len() != DefaultCapacity {
		t.Errorf("a full ring: %v allocations an Observe, %d samples held; want 0 and %d", allocs, ring.Len(), DefaultCapacity)
	}
}

// TestRingDropsMonotonicReadingOnly: a time.Now() sample comes back as the
// same wall-clock instant in the same zone; only the monotonic reading, which
// a stored history has no use for, is gone.
func TestRingDropsMonotonicReadingOnly(t *testing.T) {
	ring, _ := NewRing(4)
	at := time.Now()
	if err := ring.Observe(at, 1); err != nil {
		t.Fatal(err)
	}
	if got := ring.Samples()[0]; got.At != at.Round(0) {
		t.Errorf("Samples()[0].At = %#v, want %#v", got.At, at.Round(0))
	}
}

func TestRingRejectsUnrepresentableTimes(t *testing.T) {
	ring, _ := NewRing(4)
	for _, at := range []time.Time{{}, time.Date(1600, 1, 1, 0, 0, 0, 0, time.UTC), time.Date(2300, 1, 1, 0, 0, 0, 0, time.UTC)} {
		if err := ring.Observe(at, 1); !errors.Is(err, ErrTimeRange) {
			t.Errorf("Observe(%v) = %v, want ErrTimeRange", at, err)
		}
	}
	if ring.Len() != 0 {
		t.Errorf("rejected samples changed the ring: len %d", ring.Len())
	}
}

// TestRingReaderWhileWriter is the -race gate of the compact buffer: readers
// rebuild time.Time values from slots while one writer overwrites them, and
// every snapshot must still be strictly chronological in one zone.
func TestRingReaderWhileWriter(t *testing.T) {
	ring, _ := NewRing(64)
	zone := time.FixedZone("JST", 9*3600)
	start := time.Date(2026, 1, 1, 0, 0, 0, 0, zone)
	const writes = 20000
	var wg sync.WaitGroup
	done := make(chan struct{})
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				samples := ring.Samples()
				for i := 1; i < len(samples); i++ {
					if !samples[i].At.After(samples[i-1].At) || samples[i].At.Location() != zone {
						t.Errorf("snapshot out of order or re-zoned at %d: %v then %v", i, samples[i-1].At, samples[i].At)
						return
					}
				}
				if later := ring.Samples(); len(samples) > 0 && later[len(later)-1].At.Before(samples[len(samples)-1].At) {
					t.Errorf("a later snapshot's tail %v older than an earlier one's %v", later[len(later)-1].At, samples[len(samples)-1].At)
					return
				}
				_ = ring.Prices()
			}
		}()
	}
	for i := 1; i <= writes; i++ {
		if err := ring.Observe(start.Add(time.Duration(i)*time.Millisecond), float64(i)); err != nil {
			t.Errorf("write %d: %v", i, err)
			break
		}
	}
	close(done)
	wg.Wait()
}
