// Package pricefeed holds live spot-price observations from the per-host
// auctions in bounded rings, so the prediction models (internal/predict) and
// scheduling strategies (internal/strategy) see the history the market
// actually produced rather than an offline trace. A Ring is the one
// price-history type, and a host keeps at most one: its auction market hangs
// it for the first reader (auction.Market.History) and raises it to the
// largest window any reader declares — an agent's forecast window, an
// experiment's run, auctioneerd's week. The host's streaming forecast model
// hangs beside it; the market's observer list is the only fan-out.
//
// The ring is a validation boundary in the spirit of predict.FitAR: a single
// NaN, infinite price, out-of-order tick, or duplicate timestamp would
// silently poison every downstream autocorrelation and covariance, so all
// four are rejected here with typed errors.
package pricefeed

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Errors returned by Ring.Observe.
var (
	ErrNonFinite  = errors.New("pricefeed: non-finite price")
	ErrNegative   = errors.New("pricefeed: negative price")
	ErrOutOfOrder = errors.New("pricefeed: observation older than last")
	ErrDuplicate  = errors.New("pricefeed: duplicate observation timestamp")
	ErrTimeRange  = errors.New("pricefeed: timestamp outside the representable range")
)

// Sample is one spot-price observation.
type Sample struct {
	At    time.Time
	Price float64
}

// slot is one stored sample: Unix nanoseconds and a price, 16 bytes. Holding
// no pointer, a ring's buffer is never scanned by the garbage collector; and
// since the buffer grows with what the ring holds, a host with one sample
// costs 8 slots, not its capacity's worth.
type slot struct {
	ns    int64
	price float64
}

// Slots hold Unix nanoseconds, which cover the years 1678–2262: instants
// whose time.Time.Unix() seconds lie within these bounds (math.MinInt64/1e9
// and math.MaxInt64/1e9, rounded inward) convert exactly.
const (
	minUnixSec = -9223372036
	maxUnixSec = 9223372035
)

// Ring is a bounded, chronologically ordered buffer of spot-price samples.
// Safe for concurrent use: replicated experiments tick worlds from several
// goroutines, and the observability endpoints may read while the market
// writes. Samples come back with the wall-clock instant they were observed
// at, in the time zone of the ring's first sample; a monotonic clock reading
// is not kept.
type Ring struct {
	mu   sync.Mutex
	size int            // capacity
	buf  []slot         // grows with the samples held, up to size slots
	loc  *time.Location // zone of the first accepted sample
	next int            // index the next sample is written to
	n    int            // samples currently held (<= size)
	last int64          // newest accepted timestamp; meaningful once n > 0
	lost atomic.Int64   // samples Observer refused or a newer sample evicted
}

// firstSlots is the buffer a ring's first sample allocates.
const firstSlots = 8

// NewRing returns a ring holding the trailing capacity samples. It reserves
// nothing: the first sample allocates a buffer of a few slots, which doubles
// as samples arrive until it holds capacity, and only then does the ring
// wrap around. A host of a wide grid that is never bid on sees one sample
// (or none), and its ring costs that, not capacity slots.
func NewRing(capacity int) (*Ring, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("pricefeed: ring capacity %d, want >= 1", capacity)
	}
	return &Ring{size: capacity}, nil
}

// growLocked doubles the buffer, capped at the capacity. It is called only
// while the ring is not yet full, when the samples sit in buf[:n] in order.
func (r *Ring) growLocked() {
	buf := make([]slot, min(max(2*len(r.buf), firstSlots), r.size))
	copy(buf, r.buf[:r.n])
	r.buf = buf
}

// sample rebuilds the Sample held in a slot.
func (r *Ring) sample(s slot) Sample {
	return Sample{At: time.Unix(0, s.ns).In(r.loc), Price: s.price}
}

// Observe appends one sample. Non-finite or negative prices, samples older
// than the newest held one, duplicate timestamps and timestamps outside the
// years 1678–2262 are rejected with a typed error and leave the ring
// unchanged.
func (r *Ring) Observe(at time.Time, price float64) error {
	if math.IsNaN(price) || math.IsInf(price, 0) {
		return fmt.Errorf("%w: %v", ErrNonFinite, price)
	}
	if price < 0 {
		return fmt.Errorf("%w: %v", ErrNegative, price)
	}
	if sec := at.Unix(); sec < minUnixSec || sec > maxUnixSec {
		return fmt.Errorf("%w: %v", ErrTimeRange, at)
	}
	ns := at.UnixNano()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.n > 0 {
		if ns < r.last {
			return fmt.Errorf("%w: %v < %v", ErrOutOfOrder, at, time.Unix(0, r.last).In(r.loc))
		}
		if ns == r.last {
			return fmt.Errorf("%w: %v", ErrDuplicate, at)
		}
	} else {
		r.loc = at.Location()
	}
	if r.next == len(r.buf) {
		r.growLocked() // only before the ring is full: then next wraps to 0
	}
	r.buf[r.next] = slot{ns: ns, price: price}
	r.next = (r.next + 1) % r.size
	if r.n < r.size {
		r.n++
	} else {
		r.lost.Add(1) // overwrote the oldest
	}
	r.last = ns
	return nil
}

// Len returns the number of samples currently held.
func (r *Ring) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Capacity returns the maximum number of samples the ring retains.
func (r *Ring) Capacity() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.size
}

// Raise lifts the ring's capacity to capacity if that is larger, keeping
// every sample held, oldest first from the buffer's start.
func (r *Ring) Raise(capacity int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if capacity > r.size {
		held := r.heldLocked()
		r.buf, r.next, r.size = slices.Concat(held[0], held[1]), r.n, capacity
	}
}

// Lost returns how many samples the ring has let go of: those its Observer
// refused and those a newer sample pushed out of the full ring.
func (r *Ring) Lost() int64 { return r.lost.Load() }

// heldLocked returns the held slots, oldest first, as the buffer's two runs:
// everything written so far until the ring fills, then from the write index
// around to it again.
func (r *Ring) heldLocked() [2][]slot {
	if r.n < r.size {
		return [2][]slot{r.buf[:r.n]}
	}
	return [2][]slot{r.buf[r.next:], r.buf[:r.next]}
}

// Samples returns the held samples oldest first.
func (r *Ring) Samples() []Sample {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Sample, 0, r.n)
	for _, run := range r.heldLocked() {
		for _, s := range run {
			out = append(out, r.sample(s))
		}
	}
	return out
}

// Prices returns just the price values, oldest first — the shape the
// predictors and the portfolio covariance estimator consume.
func (r *Ring) Prices() []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]float64, 0, r.n)
	for _, run := range r.heldLocked() {
		for _, s := range run {
			out = append(out, s.price)
		}
	}
	return out
}

// Window returns the prices observed in (from, to], oldest first. It finds
// them by binary search on the held timestamps and allocates only the result,
// so a run-long ring answers many short windows cheaply.
func (r *Ring) Window(from, to time.Time) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var spans [2][]slot
	n := 0
	for k, run := range r.heldLocked() {
		i := sort.Search(len(run), func(m int) bool { return time.Unix(0, run[m].ns).After(from) })
		j := sort.Search(len(run), func(m int) bool { return time.Unix(0, run[m].ns).After(to) })
		spans[k] = run[i:max(i, j)]
		n += len(spans[k])
	}
	out := make([]float64, 0, n)
	for _, span := range spans {
		for _, s := range span {
			out = append(out, s.price)
		}
	}
	return out
}

// DefaultCapacity is an agent's forecast window when none is configured: two
// hours of the paper's 10-second reallocation ticks.
const DefaultCapacity = 720

// Observer returns the callback, with auction.Market.Observe's signature,
// that hangs r on a host's market as its price history: every clear is
// recorded into r and counted in pricefeed_samples_recorded_total. A sample
// the ring refuses (the market never produces one; a bug or clock glitch
// might) is counted in r.Lost and pricefeed_samples_rejected_total, not
// propagated: the history is advisory and must not disturb the market.
func (r *Ring) Observer() func(price float64, at time.Time) {
	return func(price float64, at time.Time) {
		if err := r.Observe(at, price); err != nil {
			r.lost.Add(1)
			mSamplesRejected.Inc()
			return
		}
		mSamplesRecorded.Inc()
	}
}

// MeanHistory returns the tail-aligned mean price series across rings:
// element i averages the rings' i-th newest common sample, with the result
// oldest first. max > 0 keeps only the newest max samples of each ring. Empty
// rings are skipped; the series length is the shortest participating
// history. This is the partition-level price signal a meta-scheduler feeds
// its selection strategy.
func MeanHistory(rings []*Ring, max int) []float64 {
	series := make([][]float64, 0, len(rings))
	minLen := -1
	for _, r := range rings {
		vs := r.Prices()
		if max > 0 && len(vs) > max {
			vs = vs[len(vs)-max:]
		}
		if len(vs) == 0 {
			continue
		}
		series = append(series, vs)
		if minLen < 0 || len(vs) < minLen {
			minLen = len(vs)
		}
	}
	if len(series) == 0 {
		return nil
	}
	out := make([]float64, minLen)
	for _, vs := range series {
		tail := vs[len(vs)-minLen:]
		for i, v := range tail {
			out[i] += v
		}
	}
	for i := range out {
		out[i] /= float64(len(series))
	}
	return out
}

// Hub is the name bench/replay.go times a feed's observe path under, and
// nothing else builds one: a host's ring hangs on its market by
// auction.Market.History. It goes with ROADMAP item 1's bench change.
type Hub struct{ capacity int }

// NewHub returns a Hub whose rings hold capacity samples each
// (<= 0 means DefaultCapacity).
func NewHub(capacity int) *Hub {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Hub{capacity: capacity}
}

// Observer returns the Observer of a new ring; hostID names nothing.
func (h *Hub) Observer(hostID string) func(price float64, at time.Time) {
	r, _ := NewRing(h.capacity) // capacity validated in NewHub
	return r.Observer()
}
