// Package pricefeed collects live spot-price observations from the per-host
// auctions into bounded rings, so the prediction models (internal/predict)
// and scheduling strategies (internal/strategy) see the same history the
// market actually produced rather than an offline trace. A Ring is the one
// price-history type: the experiments that read a whole run keep one per host
// sized to the run. A Hub gives each host one Ring, fans observations in from
// the auction's Observe injection point, and each host entry can
// carry attached Sinks — streaming predictors whose state lives with the
// ring, updated once per clear instead of refitted from a copied history per
// decision.
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

// slot is one stored sample: Unix nanoseconds and a price. Holding no
// pointer, a ring's buffer is never scanned by the garbage collector — with
// one 720-slot ring per host that is most of a wide grid's heap.
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
	buf  []slot         // size slots, allocated by the first accepted sample
	loc  *time.Location // zone of the first accepted sample
	next int            // index the next sample is written to
	n    int            // samples currently held (<= size)
	last int64          // newest accepted timestamp; meaningful once n > 0
}

// NewRing returns a ring holding the trailing capacity samples. The buffer is
// allocated when the first sample arrives: most hosts of a wide grid are never
// bid on, and their markets never hand their rings one.
func NewRing(capacity int) (*Ring, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("pricefeed: ring capacity %d, want >= 1", capacity)
	}
	return &Ring{size: capacity}, nil
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
		if r.buf == nil {
			r.buf = make([]slot, r.size)
		}
	}
	r.buf[r.next] = slot{ns: ns, price: price}
	r.next = (r.next + 1) % r.size
	if r.n < r.size {
		r.n++
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
func (r *Ring) Capacity() int { return r.size }

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

// Last returns the newest sample, if any.
func (r *Ring) Last() (Sample, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.n == 0 {
		return Sample{}, false
	}
	idx := r.next - 1
	if idx < 0 {
		idx += r.size
	}
	return r.sample(r.buf[idx]), true
}

// DefaultCapacity is the per-host history the hub keeps when none is
// configured: two hours of the paper's 10-second reallocation ticks.
const DefaultCapacity = 720

// Sink consumes the same observation stream a host's ring records: the hook
// that lets streaming predictor state live *with* the ring instead of being
// rebuilt from copied history slices per forecast. Sinks must be safe for
// concurrent use with their own readers; the hub serializes nothing beyond
// the per-host observation order.
type Sink interface {
	Observe(at time.Time, price float64) error
}

// Hub fans per-host price observations into one Ring per host, plus any
// attached per-host sinks. One mutex guards the host map. Entries are made
// while a world is wired (Observer, Attach) and looked up by history reads;
// the observe path holds its own entry and never takes the mutex, so a clear
// costs one ring lock and one atomic load of the sink list.
type Hub struct {
	capacity int
	rejected atomic.Uint64

	mu    sync.Mutex
	hosts map[string]*hubEntry
}

// hubEntry is one host's feed state: the price ring and the sinks fed from
// it. The ring has its own internal lock. The sink list is copy-on-write:
// Attach replaces it under the hub's mutex, and the observer path reads the
// published list with one atomic load.
type hubEntry struct {
	ring  *Ring
	sinks atomic.Pointer[[]Sink] // the slice is never modified once stored
}

// NewHub returns a hub whose rings hold capacity samples each
// (<= 0 means DefaultCapacity).
func NewHub(capacity int) *Hub {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Hub{capacity: capacity, hosts: make(map[string]*hubEntry)}
}

// entryLocked returns hostID's entry, creating it on first use. h.mu is held.
func (h *Hub) entryLocked(hostID string) *hubEntry {
	e, ok := h.hosts[hostID]
	if !ok {
		ring, _ := NewRing(h.capacity) // capacity validated in NewHub
		e = &hubEntry{ring: ring}
		h.hosts[hostID] = e
	}
	return e
}

// entry returns hostID's entry, creating it on first use.
func (h *Hub) entry(hostID string) *hubEntry {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.entryLocked(hostID)
}

// Ring returns the ring for hostID, creating it on first use.
func (h *Hub) Ring(hostID string) *Ring {
	return h.entry(hostID).ring
}

// Attach subscribes a sink to hostID's observation stream: every sample the
// host's ring accepts is forwarded to the sink, in ring order. This is how
// streaming predictors colocate their state with the ring — one Observe per
// market clear instead of one history copy per scheduling decision.
func (h *Hub) Attach(hostID string, sink Sink) {
	if sink == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	e := h.entryLocked(hostID)
	var old []Sink
	if p := e.sinks.Load(); p != nil {
		old = *p
	}
	sinks := append(old[:len(old):len(old)], sink) // a copy: readers may hold old
	e.sinks.Store(&sinks)
}

// Observer returns a callback with the auction Market.Observe signature that
// records hostID's clears into its ring and forwards accepted samples to the
// host's sinks. Samples the ring's boundary rejects (the market never
// produces them; a bug or clock glitch might) are counted, not propagated —
// the feed is advisory and must not disturb the market. Sink rejections are
// likewise counted only: the ring already vetted the sample, so a sink
// refusing it is the sink's own ordering state talking.
func (h *Hub) Observer(hostID string) func(price float64, at time.Time) {
	e := h.entry(hostID)
	return func(price float64, at time.Time) {
		if err := e.ring.Observe(at, price); err != nil {
			h.rejected.Add(1)
			mSamplesRejected.Inc()
			return
		}
		mSamplesRecorded.Inc()
		sinks := e.sinks.Load()
		if sinks == nil {
			return
		}
		for _, s := range *sinks {
			if err := s.Observe(at, price); err != nil {
				mSinkRejected.Inc()
			}
		}
	}
}

// Rejected returns how many observations the hub's rings refused.
func (h *Hub) Rejected() uint64 { return h.rejected.Load() }

// Hosts returns the hosts with a ring, sorted.
func (h *Hub) Hosts() []string {
	h.mu.Lock()
	out := make([]string, 0, len(h.hosts))
	for id := range h.hosts {
		out = append(out, id)
	}
	h.mu.Unlock()
	sort.Strings(out)
	return out
}

// History returns hostID's trailing prices, oldest first (nil when the host
// has no ring yet). max > 0 keeps only the newest max values.
func (h *Hub) History(hostID string, max int) []float64 {
	h.mu.Lock()
	e, ok := h.hosts[hostID]
	h.mu.Unlock()
	if !ok {
		return nil
	}
	vs := e.ring.Prices()
	if max > 0 && len(vs) > max {
		vs = vs[len(vs)-max:]
	}
	return vs
}

// MeanHistory returns the tail-aligned mean price series across the given
// hosts: element i averages the hosts' i-th newest common observation, with
// the result oldest first. Hosts without samples are skipped; the series
// length is the shortest participating history. This is the partition-level
// price signal a meta-scheduler feeds its selection strategy.
func (h *Hub) MeanHistory(hostIDs []string, max int) []float64 {
	series := make([][]float64, 0, len(hostIDs))
	minLen := -1
	for _, id := range hostIDs {
		vs := h.History(id, max)
		if len(vs) == 0 {
			continue
		}
		series = append(series, vs)
		if minLen < 0 || len(vs) < minLen {
			minLen = len(vs)
		}
	}
	if len(series) == 0 || minLen <= 0 {
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
