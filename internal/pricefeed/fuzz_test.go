package pricefeed

import (
	"math"
	"testing"
	"time"

	"tycoongrid/internal/tsdb"
)

// FuzzRing decodes the input as a stream of (time-delta, price) operations —
// including negative and zero deltas (out-of-order and duplicate ticks) and
// sentinel bytes for NaN/Inf/negative prices — feeds it to a market's ring
// through its observer and asserts the price boundary's invariants: bad
// samples are refused, counted in Dropped and leave the ring unchanged,
// accepted samples keep the buffer bounded and strictly chronological, and
// no held price is ever non-finite or negative.
func FuzzRing(f *testing.F) {
	// Seeds mirror the attack surface spelled out in the satellite task:
	// in-order ticks, out-of-order timestamps, duplicate ticks, NaN/Inf and
	// negative prices, and enough volume to wrap the ring.
	f.Add([]byte{1, 10, 1, 20, 1, 30})                                         // monotone feed
	f.Add([]byte{5, 10, 0x80, 20})                                             // out-of-order (negative delta)
	f.Add([]byte{3, 10, 0, 20})                                                // duplicate timestamp
	f.Add([]byte{1, 250, 1, 251, 1, 252, 1, 253})                              // NaN/Inf/negative sentinels
	f.Add([]byte{1, 1, 1, 2, 1, 3, 1, 4, 1, 5, 1, 6, 1, 7, 1, 8, 1, 9, 1, 10}) // wrap
	f.Fuzz(func(t *testing.T, data []byte) {
		const capacity = 4
		r := tsdb.NewRing(capacity)
		observe := Observer(r)
		base := time.Date(2006, 1, 1, 0, 0, 0, 0, time.UTC)
		now := base
		var accepted int
		var lastAccepted time.Time
		for i := 0; i+1 < len(data); i += 2 {
			dt := time.Duration(int8(data[i])) * time.Second
			now = now.Add(dt)
			var price float64
			switch data[i+1] {
			case 250:
				price = math.NaN()
			case 251:
				price = math.Inf(1)
			case 252:
				price = math.Inf(-1)
			case 253:
				price = -1.5
			default:
				price = float64(data[i+1]) / 8
			}
			before, dropped := r.Len(), r.Dropped()
			observe(price, now)
			badPrice := math.IsNaN(price) || math.IsInf(price, 0) || price < 0
			stale := accepted > 0 && !now.After(lastAccepted)
			if badPrice || stale {
				if r.Dropped() != dropped+1 {
					t.Fatalf("op %d: accepted invalid sample (price=%v, at=%v, last=%v)",
						i/2, price, now, lastAccepted)
				}
				if r.Len() != before {
					t.Fatalf("op %d: rejected sample changed length %d -> %d", i/2, before, r.Len())
				}
				continue
			}
			if r.Dropped() != dropped {
				t.Fatalf("op %d: valid sample rejected (price=%v, at=%v)", i/2, price, now)
			}
			accepted++
			lastAccepted = now
		}
		want := accepted
		if want > capacity {
			want = capacity
		}
		if r.Len() != want {
			t.Fatalf("len = %d, want %d (accepted %d, capacity %d)", r.Len(), want, accepted, capacity)
		}
		pts := r.Since(math.MinInt64)
		for i, p := range pts {
			if math.IsNaN(p.V) || math.IsInf(p.V, 0) || p.V < 0 {
				t.Fatalf("held sample %d has invalid price %v", i, p.V)
			}
			if i > 0 && p.T <= pts[i-1].T {
				t.Fatalf("samples out of order at %d: %v", i, pts)
			}
		}
	})
}
