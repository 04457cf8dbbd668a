package tsdb

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
	"unsafe"
)

// at is the i-th 10-second tick of 2006-01-01 UTC, in unix nanoseconds.
func at(i int) int64 { return tn(1136073600 + 10*int64(i)) }

// refRing is a ring that reserves its capacity up front and finds a range by
// a linear scan; the growing ring is differentially tested against it.
type refRing struct {
	buf  []Point
	next int
	n    int
}

func (r *refRing) append(t int64, v float64) bool {
	if math.IsNaN(v) || math.IsInf(v, 0) || r.n > 0 && t <= r.points()[r.n-1].T {
		return false
	}
	r.buf[r.next] = Point{T: t, V: v}
	r.next = (r.next + 1) % len(r.buf)
	r.n = min(r.n+1, len(r.buf))
	return true
}

func (r *refRing) points() []Point {
	out := make([]Point, 0, r.n)
	for i := 0; i < r.n; i++ {
		out = append(out, r.buf[(r.next-r.n+i+len(r.buf))%len(r.buf)])
	}
	return out
}

func TestNewRingHoldsAtLeastOnePoint(t *testing.T) {
	for _, capacity := range []int{0, -3} {
		r := NewRing(capacity)
		r.AppendNanos(at(0), 1)
		r.AppendNanos(at(1), 2)
		if r.Capacity() != 1 || !slices.Equal(r.Since(math.MinInt64), []Point{{at(1), 2}}) {
			t.Errorf("NewRing(%d): capacity %d, holds %v; want 1 and the newest point", capacity, r.Capacity(), r.Since(math.MinInt64))
		}
	}
}

func TestRingBoundedAndChronological(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 10; i++ {
		if !r.AppendNanos(at(i), float64(i)) {
			t.Fatalf("point %d refused", i)
		}
	}
	if got := Values(r.Since(math.MinInt64)); r.Len() != 4 || !slices.Equal(got, []float64{6, 7, 8, 9}) {
		t.Fatalf("len %d, values %v; want 4 and [6 7 8 9]", r.Len(), got)
	}
	if last, ok := r.Latest(); !ok || last != (Point{at(9), 9}) {
		t.Errorf("latest = %+v", last)
	}
}

// TestRingRangeBounds: a range is (from, to] — a point at from is out, one
// at to is in — on a ring that has wrapped, so the range spans the buffer's
// two runs.
func TestRingRangeBounds(t *testing.T) {
	r := NewRing(6)
	for i := 0; i < 10; i++ { // holds 4..9, wrapped after 7
		r.AppendNanos(at(i), float64(i))
	}
	cases := []struct {
		name     string
		from, to int64
		want     []float64
	}{
		{"from excluded, to included", at(5), at(8), []float64{6, 7, 8}},
		{"across the wrap", at(3), at(9), []float64{4, 5, 6, 7, 8, 9}},
		{"between points", at(5) + 1, at(7) - 1, []float64{6}},
		{"one instant", at(7), at(7), nil},
		{"to before from", at(8), at(5), nil},
		{"evicted range", at(0), at(3), nil},
		{"after the newest", at(9), at(20), nil},
		{"every instant", math.MinInt64, math.MaxInt64, []float64{4, 5, 6, 7, 8, 9}},
		{"from the last instant", math.MaxInt64, math.MaxInt64, nil},
	}
	for _, c := range cases {
		if got := r.Range(c.from, c.to); !slices.Equal(Values(got), c.want) || (got == nil) != (c.want == nil) {
			t.Errorf("%s: Range = %v, want %v", c.name, got, c.want)
		}
	}
	if got := NewRing(4).Range(at(0), at(100)); got != nil {
		t.Errorf("empty ring: Range = %v", got)
	}
	if got := r.Since(at(8)); !slices.Equal(Values(got), []float64{8, 9}) {
		t.Errorf("Since(at(8)) = %v, want [8 9]: Since includes its instant", got)
	}
}

// TestRingGrowsWithWhatItHolds walks rings of capacity 1, 8 (the first
// buffer exactly), 9 (one past it) and 720 (an agent's default window) across
// every growth boundary and twice around the wrap, against the reference
// ring, which reserves its capacity up front. After every point — and after
// a duplicate the ring must refuse without growing — contents and a range
// over everything agree, and the buffer holds at most twice the points (the
// first 8 slots aside) and never more than the capacity.
// TestRingAllocationBound bounds what a one-point ring keeps.
func TestRingGrowsWithWhatItHolds(t *testing.T) {
	for _, capacity := range []int{1, firstSlots, firstSlots + 1, 720} {
		t.Run(fmt.Sprint(capacity), func(t *testing.T) {
			ring := NewRing(capacity)
			if ring.buf != nil {
				t.Fatalf("a new ring holds a %d-slot buffer, want none", len(ring.buf))
			}
			ref := &refRing{buf: make([]Point, capacity)}
			for i := 1; i <= 2*capacity+3; i++ {
				if got, want := ring.AppendNanos(at(i), float64(i)/3600), ref.append(at(i), float64(i)/3600); got != want {
					t.Fatalf("point %d: AppendNanos = %v, reference %v", i, got, want)
				}
				before := len(ring.buf)
				if ring.AppendNanos(at(i), 1) || len(ring.buf) != before {
					t.Fatalf("point %d: a duplicate was held or moved the buffer from %d to %d slots", i, before, len(ring.buf))
				}
				want := ref.points()
				if got := ring.Since(math.MinInt64); !slices.Equal(got, want) || ring.Len() != len(want) {
					t.Fatalf("point %d: ring holds %v (Len %d), reference %v", i, got, ring.Len(), want)
				}
				if got := ring.Range(at(0), at(i)); !slices.Equal(got, want) {
					t.Fatalf("point %d: Range over everything = %v, reference %v", i, got, want)
				}
				n, slots := len(want), len(ring.buf)
				if slots < n || slots > capacity || slots > max(firstSlots, 2*n-1) {
					t.Fatalf("point %d: %d held in a %d-slot buffer (capacity %d)", i, n, slots, capacity)
				}
			}
			if len(ring.buf) != capacity {
				t.Errorf("after %d points the buffer holds %d slots, want the capacity %d", 2*capacity+3, len(ring.buf), capacity)
			}
		})
	}
}

// TestRingAllocationBound: a host whose market cleared once costs its ring
// two allocations, the ring and a buffer of at most 128 bytes, not its
// 720-point capacity's 11.5 KB; and a full ring appends in place.
func TestRingAllocationBound(t *testing.T) {
	const capacity = 720 // an agent's default forecast window
	var ring *Ring
	allocs := testing.AllocsPerRun(100, func() {
		ring = NewRing(capacity)
		ring.AppendNanos(at(0), 1)
	})
	if allocs > 2 {
		t.Errorf("a %d-capacity ring and its first point: %v allocations, want <= 2", capacity, allocs)
	}
	if bytes := cap(ring.buf) * int(unsafe.Sizeof(Point{})); bytes > 128 {
		t.Errorf("a %d-capacity ring holding one point keeps %d bytes of buffer, want <= 128", capacity, bytes)
	}
	for i := 1; i < capacity; i++ {
		ring.AppendNanos(at(i), 1)
	}
	i := capacity
	allocs = testing.AllocsPerRun(100, func() {
		ring.AppendNanos(at(i), 1)
		i++
	})
	if allocs != 0 || ring.Len() != capacity {
		t.Errorf("a full ring: %v allocations an append, %d points held; want 0 and %d", allocs, ring.Len(), capacity)
	}
}

// TestRingReaderWhileWriter is the -race gate of the buffer: readers copy
// points out while one writer grows and then overwrites it, and every copy
// must still be strictly chronological, no older than an earlier copy.
func TestRingReaderWhileWriter(t *testing.T) {
	ring := NewRing(64)
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
				pts := ring.Since(math.MinInt64)
				for i := 1; i < len(pts); i++ {
					if pts[i].T <= pts[i-1].T {
						t.Errorf("copy out of order at %d: %v then %v", i, pts[i-1], pts[i])
						return
					}
				}
				if later, ok := ring.Latest(); len(pts) > 0 && (!ok || later.T < pts[len(pts)-1].T) {
					t.Errorf("a later newest point %v older than an earlier copy's %v", later, pts[len(pts)-1])
					return
				}
			}
		}()
	}
	for i := 1; i <= writes; i++ {
		if !ring.AppendNanos(int64(i)*1e6, float64(i)) {
			t.Errorf("write %d refused", i)
			break
		}
	}
	close(done)
	wg.Wait()
}

// TestRingRaiseKeepsWhatItHolds: raising a full, wrapped ring keeps every
// point in order and makes room for more; a smaller capacity changes
// nothing.
func TestRingRaiseKeepsWhatItHolds(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 6; i++ { // wraps: holds 2..5
		r.AppendNanos(at(i), float64(i))
	}
	r.Raise(3)
	if r.Capacity() != 4 {
		t.Fatalf("Raise(3) set the capacity to %d, want it left at 4", r.Capacity())
	}
	r.Raise(20)
	if got := Values(r.Since(math.MinInt64)); r.Capacity() != 20 || !slices.Equal(got, []float64{2, 3, 4, 5}) {
		t.Fatalf("after Raise(20): capacity %d, values %v, want 20 and [2 3 4 5]", r.Capacity(), got)
	}
	for i := 6; i < 30; i++ {
		if !r.AppendNanos(at(i), float64(i)) {
			t.Fatalf("point %d refused", i)
		}
	}
	want := make([]float64, 0, 20)
	for i := 10; i < 30; i++ {
		want = append(want, float64(i))
	}
	if got := Values(r.Since(math.MinInt64)); !slices.Equal(got, want) {
		t.Errorf("raised ring holds %v, want %v", got, want)
	}
	if got := Values(r.Range(at(27), at(29))); !slices.Equal(got, []float64{28, 29}) {
		t.Errorf("Range over the raised ring = %v, want [28 29]", got)
	}
}

// TestRingLostCountsEvictionsAndRefusals: a ring counts every point it let
// go of — pushed out by a newer one, refused, or dropped by its writer — so
// a reader that needs all of them can tell it does not have them; Dropped
// counts the refusals alone.
func TestRingLostCountsEvictionsAndRefusals(t *testing.T) {
	r := NewRing(3)
	for i := 0; i < 5; i++ {
		r.AppendNanos(at(i), float64(i))
	}
	if r.Lost() != 2 || r.Dropped() != 0 {
		t.Fatalf("5 points into 3 slots: lost %d, dropped %d, want 2 and 0", r.Lost(), r.Dropped())
	}
	r.AppendNanos(at(4), 1)          // duplicate
	r.AppendNanos(at(9), math.NaN()) // non-finite
	r.Drop()                         // refused by the writer
	if r.Lost() != 5 || r.Dropped() != 3 || r.Len() != 3 {
		t.Errorf("after three refusals: lost %d, dropped %d, len %d, want 5, 3 and 3", r.Lost(), r.Dropped(), r.Len())
	}
}

// TestRingHoldsAfter: a ring tells whether it still holds every point after
// an instant, so a reader of a window can refuse one it has lost the start
// of instead of reading what is left of it.
func TestRingHoldsAfter(t *testing.T) {
	r := NewRing(3)
	for i := 0; i < 3; i++ {
		r.AppendNanos(at(i), float64(i))
	}
	if !r.HoldsAfter(math.MinInt64) {
		t.Fatal("a ring that pushed nothing out does not hold everything it took")
	}
	for i := 3; i < 5; i++ { // pushes out 0 and 1
		r.AppendNanos(at(i), float64(i))
	}
	r.AppendNanos(at(4), 9) // a refusal pushes nothing out
	for _, c := range []struct {
		after int64
		want  bool
	}{
		{at(0), false},
		{at(1) - 1, false},
		{at(1), true},
		{at(3), true},
	} {
		if got := r.HoldsAfter(c.after); got != c.want {
			t.Errorf("HoldsAfter(%d) = %v, want %v", c.after, got, c.want)
		}
	}
	r.Raise(10)
	if r.HoldsAfter(at(0)) || !r.HoldsAfter(at(1)) {
		t.Error("raising the ring changed what it had pushed out")
	}
}
