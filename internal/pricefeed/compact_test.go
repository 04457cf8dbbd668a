package pricefeed

import (
	"errors"
	"math"
	"testing"
	"time"

	"tycoongrid/internal/rng"
)

// sample is one observation of the reference ring.
type sample struct {
	at    time.Time
	price float64
}

// refRing is a price history as it stood before samples were stored
// pointer-free: whole time.Time values in the buffer, the same rules. A
// market's ring and its observer are differentially tested against it.
type refRing struct {
	buf  []sample
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
	r.buf[r.next] = sample{at: at, price: price}
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
	r.last, r.seen = at, true
	return nil
}

func (r *refRing) samples() []sample {
	out := make([]sample, 0, r.n)
	start := r.next - r.n
	if start < 0 {
		start += len(r.buf)
	}
	for i := 0; i < r.n; i++ {
		out = append(out, r.buf[(start+i)%len(r.buf)])
	}
	return out
}

// window is the linear scan a Range answers by binary search: the prices
// held in (from, to].
func (r *refRing) window(from, to time.Time) []float64 {
	var out []float64
	for _, s := range r.samples() {
		if s.at.After(from) && !s.at.After(to) {
			out = append(out, s.price)
		}
	}
	return out
}

// TestRingMatchesTimeValuedReference feeds a market's ring, through its
// observer, and the reference the same seeded stream — good samples, every
// kind of bad one, enough to wrap several times — on simulation time (UTC)
// and on a wall clock in a non-UTC zone, and compares verdicts (Check's, and
// whether the ring counted a refusal), contents and a random window after
// every operation. The ring keeps instants, not zones: they compare Equal.
func TestRingMatchesTimeValuedReference(t *testing.T) {
	clocks := map[string]time.Time{
		"sim-utc":    time.Date(2006, time.June, 19, 0, 0, 0, 0, time.UTC),
		"wall-zoned": time.Date(2026, time.September, 27, 23, 59, 58, 987654321, time.FixedZone("CEST", 2*3600)),
		"pre-epoch":  time.Date(1969, time.December, 31, 23, 59, 50, 5, time.FixedZone("EST", -5*3600)),
	}
	for name, start := range clocks {
		t.Run(name, func(t *testing.T) {
			src := rng.New(11)
			r, obs := ring(16)
			ref := &refRing{buf: make([]sample, 16)}
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
				last, held := r.Latest()
				checked := Check(price, at, time.Unix(0, last.T), held)
				dropped := r.Dropped()
				obs(price, at)
				want := ref.observe(at, price)
				if (checked == nil) != (want == nil) || (want != nil && !errors.Is(checked, want)) {
					t.Fatalf("op %d: Check(%v, %v) = %v, reference %v", op, price, at, checked, want)
				}
				if refused := r.Dropped() != dropped; refused != (want != nil) {
					t.Fatalf("op %d: observer refused %v, reference %v", op, refused, want)
				}
				if want == nil {
					now = at
				}

				wantSamples := ref.samples()
				got := r.Since(math.MinInt64)
				if len(got) != len(wantSamples) || r.Len() != len(wantSamples) {
					t.Fatalf("op %d: %d samples (Len %d), reference %d", op, len(got), r.Len(), len(wantSamples))
				}
				for i, w := range wantSamples {
					if !time.Unix(0, got[i].T).Equal(w.at) || got[i].V != w.price {
						t.Fatalf("op %d: sample %d = %v at %v, reference %v at %v", op, i, got[i].V, time.Unix(0, got[i].T), w.price, w.at)
					}
				}
				// A window somewhere around the held span, its ends on a
				// sample or between two.
				from := now.Add(-time.Duration(src.Intn(int(8 * time.Minute))))
				if len(wantSamples) > 0 && src.Intn(3) == 0 {
					from = wantSamples[src.Intn(len(wantSamples))].at
				}
				to := from.Add(time.Duration(src.Intn(int(3 * time.Minute))))
				gotW, wantW := r.Range(from.UnixNano(), to.UnixNano()), ref.window(from, to)
				if len(gotW) != len(wantW) {
					t.Fatalf("op %d: Range(%v, %v) = %v, reference %v", op, from, to, gotW, wantW)
				}
				for i := range wantW {
					if gotW[i].V != wantW[i] {
						t.Fatalf("op %d: Range(%v, %v) = %v, reference %v", op, from, to, gotW, wantW)
					}
				}
			}
			if r.Len() != r.Capacity() {
				t.Fatalf("stream never filled the ring: %d of %d", r.Len(), r.Capacity())
			}
		})
	}
}
