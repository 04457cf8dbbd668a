// Package tsdb is the repository's dependency-free embedded time-series
// store: fixed-capacity rings of (timestamp, value) points, one per named
// series, with monotonic append, tail-aligned windowed queries and
// downsampling into min/max/mean/p99 buckets.
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
// Memory is strictly bounded: a series is one pre-allocated ring of
// DefaultCapacity points (64 KiB at the default), appends past capacity
// overwrite the oldest point, and out-of-order appends are dropped and
// counted rather than sorted in.
package tsdb

import (
	"math"
	"sort"
	"strings"
	"sync"
	"time"
)

// DefaultCapacity is the per-series ring size of a zero-configured DB: at
// the daemons' default 5 s self-scrape interval it holds ~5.7 hours of
// history in 64 KiB per series.
const DefaultCapacity = 4096

// Point is one sample: a unix-nanosecond timestamp and a value.
type Point struct {
	T int64   `json:"t"` // unix nanoseconds
	V float64 `json:"v"`
}

// Series is one named metric's ring of points. Appends are monotonic: a
// point not strictly newer than the last accepted one is dropped (and
// counted), so the ring is always sorted by construction and window queries
// never need a sort. Safe for concurrent use.
type Series struct {
	mu      sync.Mutex
	buf     []Point
	head    int // next write slot once full
	n       int // points stored
	dropped uint64
}

func newSeries(capacity int) *Series {
	return &Series{buf: make([]Point, 0, capacity)}
}

// Append records (t, v). It reports whether the point was accepted: NaN/Inf
// values and timestamps not after the newest stored point are dropped.
func (s *Series) Append(t time.Time, v float64) bool {
	return s.AppendNanos(t.UnixNano(), v)
}

// AppendNanos is Append with a raw unix-nanosecond timestamp.
func (s *Series) AppendNanos(tn int64, v float64) bool {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		s.mu.Lock()
		s.dropped++
		s.mu.Unlock()
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n > 0 {
		last := s.at(s.n - 1)
		if tn <= last.T {
			s.dropped++
			return false
		}
	}
	if len(s.buf) < cap(s.buf) {
		s.buf = append(s.buf, Point{T: tn, V: v})
		s.n++
		return true
	}
	// Ring is full: overwrite the oldest point.
	s.buf[s.head] = Point{T: tn, V: v}
	s.head = (s.head + 1) % len(s.buf)
	return true
}

// at returns the i-th oldest stored point. Caller holds mu.
func (s *Series) at(i int) Point {
	if len(s.buf) < cap(s.buf) {
		return s.buf[i]
	}
	return s.buf[(s.head+i)%len(s.buf)]
}

// Len returns how many points are stored.
func (s *Series) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// Dropped returns how many appends were rejected (non-monotonic timestamps
// or non-finite values).
func (s *Series) Dropped() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Latest returns the newest point, if any.
func (s *Series) Latest() (Point, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n == 0 {
		return Point{}, false
	}
	return s.at(s.n - 1), true
}

// Since returns a copy of every point with T >= tn, in ascending time order.
func (s *Series) Since(tn int64) []Point {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Binary search over the logically-ordered ring for the first index with
	// T >= tn.
	lo := sort.Search(s.n, func(i int) bool { return s.at(i).T >= tn })
	if lo == s.n {
		return nil
	}
	out := make([]Point, 0, s.n-lo)
	for i := lo; i < s.n; i++ {
		out = append(out, s.at(i))
	}
	return out
}

// Window returns the tail-aligned window of the series: every point within d
// of the newest point, the newest included. The window is anchored at the
// data's own tail, not the wall clock, so a simulated or idle series still
// answers "the last five minutes of what I have" exactly.
func (s *Series) Window(d time.Duration) []Point {
	last, ok := s.Latest()
	if !ok {
		return nil
	}
	return s.Since(last.T - d.Nanoseconds() + 1)
}

// WindowBefore returns every point in (end-d, end], for callers that anchor
// the window at an explicit instant (the SLO evaluator anchors at its clock
// so a silent daemon violates "freshness" instead of forever re-reporting
// its last good window).
func (s *Series) WindowBefore(end time.Time, d time.Duration) []Point {
	endN := end.UnixNano()
	pts := s.Since(endN - d.Nanoseconds() + 1)
	// Trim points after end (possible only when the caller's clock lags the
	// appender's; keep the semantics exact anyway).
	for len(pts) > 0 && pts[len(pts)-1].T > endN {
		pts = pts[:len(pts)-1]
	}
	return pts
}

// DB is a registry of series by name. Safe for concurrent use.
type DB struct {
	mu       sync.RWMutex
	capacity int
	series   map[string]*Series
}

// NewDB creates a DB whose series hold capacity points each (<= 0 means
// DefaultCapacity).
func NewDB(capacity int) *DB {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &DB{capacity: capacity, series: make(map[string]*Series)}
}

// Series returns the named series, creating it on first use.
func (db *DB) Series(name string) *Series {
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
	s = newSeries(db.capacity)
	db.series[name] = s
	return s
}

// Lookup returns the named series without creating it.
func (db *DB) Lookup(name string) (*Series, bool) {
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
