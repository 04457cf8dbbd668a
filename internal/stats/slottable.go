package stats

import (
	"fmt"
	"math"
)

// SlotTable is the paper's "self-adjusting slot table recording the
// proportion of prices that fall into certain ranges". It is a fixed-slot
// histogram whose covered range doubles (rebinning existing counts) whenever
// a price lands outside it, so no a-priori knowledge of the price range is
// needed.
type SlotTable struct {
	slots []float64 // counts per slot
	min   float64   // inclusive lower bound of slot 0
	width float64   // width of each slot
	n     float64   // total observations
	init  bool
}

// NewSlotTable returns a table with the given number of slots. The range is
// seeded by the first observation.
func NewSlotTable(slots int) (*SlotTable, error) {
	if slots < 2 {
		return nil, fmt.Errorf("stats: slot table needs >= 2 slots, got %d", slots)
	}
	return &SlotTable{slots: make([]float64, slots)}, nil
}

// Reset clears all observations but keeps the learned range, so a recycled
// window array starts with sensible bins.
func (t *SlotTable) Reset() {
	for i := range t.slots {
		t.slots[i] = 0
	}
	t.n = 0
}

// Observe records one price.
func (t *SlotTable) Observe(x float64) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return // defensive: corrupt snapshots must not poison the table
	}
	if !t.init {
		// Seed a range around the first value. A zero first price gets a
		// unit-width seed so the width is non-degenerate.
		span := math.Abs(x)
		if span == 0 {
			span = 1
		}
		t.min = x - span/2
		t.width = span / float64(len(t.slots))
		t.init = true
	}
	for x < t.min || x >= t.min+t.width*float64(len(t.slots)) {
		t.expand(x)
	}
	idx := int((x - t.min) / t.width)
	if idx == len(t.slots) { // guard float edge
		idx--
	}
	t.slots[idx]++
	t.n++
}

// expand doubles the covered range toward x, rebinning existing counts.
// Counts land in the slot containing their old slot's midpoint; with the
// range doubling, two old slots merge into one new slot.
func (t *SlotTable) expand(x float64) {
	k := len(t.slots)
	oldMin, oldWidth := t.min, t.width
	newWidth := oldWidth * 2
	var newMin float64
	if x < oldMin {
		// Grow downward.
		newMin = oldMin - oldWidth*float64(k)
	} else {
		// Grow upward.
		newMin = oldMin
	}
	newSlots := make([]float64, k)
	for i, c := range t.slots {
		if c == 0 {
			continue
		}
		mid := oldMin + (float64(i)+0.5)*oldWidth
		j := int((mid - newMin) / newWidth)
		if j < 0 {
			j = 0
		}
		if j >= k {
			j = k - 1
		}
		newSlots[j] += c
	}
	t.slots = newSlots
	t.min = newMin
	t.width = newWidth
}

// Proportions returns s_j, the fraction of observations in each slot. An
// empty table yields all zeros.
func (t *SlotTable) Proportions() []float64 {
	out := make([]float64, len(t.slots))
	if t.n == 0 {
		return out
	}
	for i, c := range t.slots {
		out[i] = c / t.n
	}
	return out
}

// Bounds returns the lower edge of slot j and the slot width.
func (t *SlotTable) Bounds() (min, width float64) { return t.min, t.width }

// Bucket describes one reported slot: its price range and the proportion of
// observations inside it.
type Bucket struct {
	Lo, Hi     float64
	Proportion float64
}

// Buckets renders the table as labeled buckets for reporting.
func (t *SlotTable) Buckets() []Bucket {
	props := t.Proportions()
	out := make([]Bucket, len(props))
	for i, p := range props {
		out[i] = Bucket{
			Lo:         t.min + t.width*float64(i),
			Hi:         t.min + t.width*float64(i+1),
			Proportion: p,
		}
	}
	return out
}

// WindowDistribution approximates the price distribution within a moving
// window of n snapshots using the paper's dual-array scheme: two slot tables
// that each collect up to 2n snapshots with a mutual time lag of n. The
// reported distribution merges both arrays with weights proportional to how
// close each is to holding exactly n snapshots:
//
//	w1 = 1 - |n1 - n| / n,   r_j = w1*s1_j + (1-w1)*s2_j.
type WindowDistribution struct {
	n     int
	a, b  *SlotTable
	na    int // snapshots currently in a
	nb    int // snapshots currently in b
	seen  int // total snapshots observed
	slots int
}

// NewWindowDistribution returns a distribution tracker for a window of n
// snapshots using the given number of slots per array.
func NewWindowDistribution(n, slots int) (*WindowDistribution, error) {
	if n < 1 {
		return nil, fmt.Errorf("stats: window size %d, want >= 1", n)
	}
	a, err := NewSlotTable(slots)
	if err != nil {
		return nil, err
	}
	b, err := NewSlotTable(slots)
	if err != nil {
		return nil, err
	}
	return &WindowDistribution{n: n, a: a, b: b, slots: slots}, nil
}

// Observe records one price snapshot into both arrays, maintaining the
// invariant |n1 - n2| = n (after warm-up): array B starts collecting n
// snapshots after A, and an array that reaches 2n snapshots is reset.
func (w *WindowDistribution) Observe(x float64) {
	w.a.Observe(x)
	w.na++
	if w.seen >= w.n {
		w.b.Observe(x)
		w.nb++
	}
	w.seen++
	if w.na >= 2*w.n {
		w.a.Reset()
		w.na = 0
	}
	if w.nb >= 2*w.n {
		w.b.Reset()
		w.nb = 0
	}
}

// Proportions returns the merged window distribution r_j. During warm-up
// (fewer than n snapshots seen) it reports array A alone.
func (w *WindowDistribution) Proportions() []float64 {
	if w.seen < w.n || w.nb == 0 {
		return w.a.Proportions()
	}
	w1 := 1 - math.Abs(float64(w.na-w.n))/float64(w.n)
	if w1 < 0 {
		w1 = 0
	}
	if w1 > 1 {
		w1 = 1
	}
	s1 := w.a.Proportions()
	s2 := w.b.Proportions()
	// The two arrays can have different learned ranges; merge on a common
	// grid spanning both.
	return mergeOnCommonGrid(w.a, w.b, s1, s2, w1, w.slots)
}

// Buckets reports the merged distribution with price-range labels.
func (w *WindowDistribution) Buckets() []Bucket {
	props := w.Proportions()
	lo, width := w.grid()
	out := make([]Bucket, len(props))
	for i, p := range props {
		out[i] = Bucket{Lo: lo + width*float64(i), Hi: lo + width*float64(i+1), Proportion: p}
	}
	return out
}

// grid returns the common reporting grid spanning both arrays.
func (w *WindowDistribution) grid() (lo, width float64) {
	aMin, aW := w.a.Bounds()
	bMin, bW := w.b.Bounds()
	aMax := aMin + aW*float64(w.slots)
	bMax := bMin + bW*float64(w.slots)
	lo = math.Min(aMin, bMin)
	hi := math.Max(aMax, bMax)
	if w.nb == 0 || w.seen < w.n {
		lo, hi = aMin, aMax
	}
	if hi <= lo {
		hi = lo + 1
	}
	return lo, (hi - lo) / float64(w.slots)
}

func mergeOnCommonGrid(a, b *SlotTable, s1, s2 []float64, w1 float64, slots int) []float64 {
	aMin, aW := a.Bounds()
	bMin, bW := b.Bounds()
	lo := math.Min(aMin, bMin)
	hi := math.Max(aMin+aW*float64(slots), bMin+bW*float64(slots))
	if hi <= lo {
		hi = lo + 1
	}
	width := (hi - lo) / float64(slots)
	out := make([]float64, slots)
	put := func(min, w float64, props []float64, weight float64) {
		for i, p := range props {
			if p == 0 {
				continue
			}
			mid := min + (float64(i)+0.5)*w
			j := int((mid - lo) / width)
			if j < 0 {
				j = 0
			}
			if j >= slots {
				j = slots - 1
			}
			out[j] += weight * p
		}
	}
	put(aMin, aW, s1, w1)
	put(bMin, bW, s2, 1-w1)
	return out
}
