// Package tsdb is the repository's dependency-free embedded time-series
// store: bounded rings of (timestamp, value) points, one per named series,
// with monotonic append, range queries and downsampling into
// min/max/mean/p99 buckets. Its Ring is the one time-ordered ring of the
// process: a daemon's metric series and a host market's price history
// (auction.Market.History) are both one.
//
// It exists because the paper's central claim — price prediction stabilizes
// cost in a volatile spot market — is only checkable in production when the
// market's history is observable: /metrics is a point-in-time reading, and
// any run longer than one scrape interval is otherwise flying blind. Every
// daemon feeds its own DB by self-scraping its metrics.Snapshot on a ticker
// (Collector), the telemetry aggregator feeds one from peer scrapes, and the
// experiment harness feeds one from engine time — the store itself never
// reads a clock, so a simulated world's telemetry is exactly as
// deterministic as the world.
//
// Memory is strictly bounded and paid as used: a ring's buffer starts at a
// few points and doubles up to its capacity (DefaultCapacity, 64 KiB, in a
// zero-configured DB), appends past capacity overwrite the oldest point, and
// out-of-order appends are dropped and counted rather than sorted in. An
// idle series costs what it holds.
package tsdb

import (
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
)

// DefaultCapacity is the per-series ring size of a zero-configured DB: at
// the daemons' default 5 s self-scrape interval it holds ~5.7 hours of
// history, 64 KiB per series once full.
const DefaultCapacity = 4096

// Point is one sample: a unix-nanosecond timestamp and a value.
type Point struct {
	T int64   `json:"t"` // unix nanoseconds
	V float64 `json:"v"`
}

// Values returns the values of pts, in order: the shape a price reader (the
// batch predictor, a run's price trace, auctioneerd's /stats) consumes.
func Values(pts []Point) []float64 {
	out := make([]float64, len(pts))
	for i, p := range pts {
		out[i] = p.V
	}
	return out
}

// firstSlots is the buffer a ring's first point allocates.
const firstSlots = 8

// Ring is a bounded, chronologically ordered buffer of points. Appends are
// monotonic: a point not strictly newer than the newest held, or whose value
// is not finite, is refused and counted, so the ring is sorted by
// construction and a range query is a binary search. Any finite value is
// held, negatives included (a conservation drift is signed); rules of a
// particular series, such as a price's, are its writer's (pricefeed.Check).
// The buffer holds no pointer, so the garbage collector never scans it.
// Safe for concurrent use.
type Ring struct {
	mu      sync.Mutex
	size    int     // capacity
	buf     []Point // grows with the points held, up to size
	next    int     // index the next point is written to
	n       int     // points held (<= size)
	dropped uint64  // appends refused
	evicted uint64  // points a newer one overwrote
	gone    int64   // the instant of the newest point overwritten
}

// NewRing returns a ring holding the trailing capacity points (at least
// one). It reserves nothing: the first point allocates a buffer of a few
// slots, which doubles as points arrive until it holds capacity, and only
// then does the ring wrap around. A host of a wide grid that is never bid on
// sees one sample (or none), and its ring costs that, not capacity slots.
func NewRing(capacity int) *Ring {
	return &Ring{size: max(capacity, 1)}
}

// AppendNanos records v at t (unix nanoseconds) and reports whether it was
// held: a non-finite v, or a t not after the newest held point, is refused
// and counted in Dropped.
func (r *Ring) AppendNanos(t int64, v float64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if math.IsNaN(v) || math.IsInf(v, 0) || r.n > 0 && t <= r.latestLocked().T {
		r.dropped++
		return false
	}
	if r.next == len(r.buf) { // only before the ring is full: then next wraps to 0
		buf := make([]Point, min(max(2*len(r.buf), firstSlots), r.size))
		copy(buf, r.buf[:r.n])
		r.buf = buf
	}
	if r.n < r.size {
		r.n++
	} else {
		r.evicted++
		r.gone = r.buf[r.next].T
	}
	r.buf[r.next] = Point{T: t, V: v}
	r.next = (r.next + 1) % r.size
	return true
}

// Drop counts one point its writer refused before offering it, so Dropped
// and Lost account for it as for a point AppendNanos refused.
func (r *Ring) Drop() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.dropped++
}

// Len returns the number of points held.
func (r *Ring) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Capacity returns the maximum number of points the ring retains.
func (r *Ring) Capacity() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.size
}

// Raise lifts the ring's capacity to capacity if that is larger, keeping
// every point held, oldest first from the buffer's start.
func (r *Ring) Raise(capacity int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if capacity > r.size {
		held := r.heldLocked()
		r.buf, r.next, r.size = slices.Concat(held[0], held[1]), r.n, capacity
	}
}

// Dropped returns how many appends the ring refused (non-finite values,
// timestamps not after the newest point, and its writer's Drops).
func (r *Ring) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Lost returns how many points the ring has let go of: those it refused and
// those a newer point pushed out of the full ring.
func (r *Ring) Lost() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped + r.evicted
}

// HoldsAfter reports whether the ring still holds every point it took after
// t (unix nanoseconds): none of them was pushed out of the full ring, so
// Range(t, to) is the whole of (t, to] as it was recorded.
func (r *Ring) HoldsAfter(t int64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.evicted == 0 || r.gone <= t
}

// Latest returns the newest point, if any.
func (r *Ring) Latest() (Point, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.n == 0 {
		return Point{}, false
	}
	return r.latestLocked(), true
}

func (r *Ring) latestLocked() Point {
	return r.buf[(r.next+r.size-1)%r.size]
}

// heldLocked returns the held points, oldest first, as the buffer's two
// runs: everything written so far until the ring fills, then from the write
// index around to it again.
func (r *Ring) heldLocked() [2][]Point {
	if r.n < r.size {
		return [2][]Point{r.buf[:r.n]}
	}
	return [2][]Point{r.buf[r.next:], r.buf[:r.next]}
}

// Range returns a copy of the points held in (from, to], oldest first (nil
// if none). It finds them by binary search and allocates only the result, so
// a run-long ring answers many short windows cheaply. A tail-aligned window
// of d is Range(latest.T-d, latest.T).
func (r *Ring) Range(from, to int64) []Point {
	if from == math.MaxInt64 {
		return nil
	}
	return r.span(from+1, to)
}

// Since returns a copy of every point held at or after t, oldest first:
// Since(math.MinInt64) is the whole ring.
func (r *Ring) Since(t int64) []Point { return r.span(t, math.MaxInt64) }

// span returns the points held in [lo, hi].
func (r *Ring) span(lo, hi int64) []Point {
	r.mu.Lock()
	defer r.mu.Unlock()
	var spans [2][]Point
	for k, run := range r.heldLocked() {
		i := sort.Search(len(run), func(m int) bool { return run[m].T >= lo })
		j := sort.Search(len(run), func(m int) bool { return run[m].T > hi })
		spans[k] = run[i:max(i, j)]
	}
	return slices.Concat(spans[0], spans[1])
}

// DB is a registry of series by name. Safe for concurrent use.
type DB struct {
	mu       sync.RWMutex
	capacity int
	series   map[string]*Ring
}

// NewDB creates a DB whose series hold up to capacity points each (<= 0
// means DefaultCapacity).
func NewDB(capacity int) *DB {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &DB{capacity: capacity, series: make(map[string]*Ring)}
}

// Series returns the named series, creating it on first use.
func (db *DB) Series(name string) *Ring {
	db.mu.RLock()
	s, ok := db.series[name]
	db.mu.RUnlock()
	if ok {
		return s
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if s, ok := db.series[name]; ok {
		return s
	}
	s = NewRing(db.capacity)
	db.series[name] = s
	return s
}

// Lookup returns the named series without creating it.
func (db *DB) Lookup(name string) (*Ring, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	s, ok := db.series[name]
	return s, ok
}

// Names returns every series name, sorted.
func (db *DB) Names() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.series))
	for name := range db.series {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Match returns the sorted names matching pattern: an exact name, or, when
// the pattern holds a '*', every name that starts with what precedes the
// first '*' and ends with what follows it. SLO rules and history queries use
// it to cover per-label children ("http_request_duration_seconds{*:p99")
// without enumerating them.
func (db *DB) Match(pattern string) []string {
	prefix, suffix, wild := strings.Cut(pattern, "*")
	if !wild {
		if _, ok := db.Lookup(pattern); ok {
			return []string{pattern}
		}
		return nil
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	var out []string
	for name := range db.series {
		if len(name) >= len(prefix)+len(suffix) &&
			strings.HasPrefix(name, prefix) && strings.HasSuffix(name, suffix) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}
