// Package trace records spot-price histories from the per-host markets and
// prepares them for the prediction stack: time-indexed series, slicing by
// window, resampling, normalization to the paper's "$/s per CPU cycles/s"
// unit, and CSV export for external plotting.
package trace

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Point is one observation.
type Point struct {
	At    time.Time
	Value float64
}

// Series is an append-only time series. Points are held pointer-free — Unix
// nanoseconds and a value, with one time zone for the whole series — so a
// world recording thousands of hosts gives the garbage collector nothing to
// scan; Points, Resample and WriteCSV hand back time.Time values equal to
// the appended ones (wall clock only: a monotonic reading is not kept).
type Series struct {
	Name   string
	loc    *time.Location // zone of the first appended time; every point reports in it
	points []point
}

// point is one stored observation.
type point struct {
	ns    int64 // Unix nanoseconds
	value float64
}

// ErrTimeRange is returned by Append for a timestamp outside the years
// 1678–2262, which Unix nanoseconds cannot hold.
var ErrTimeRange = errors.New("trace: timestamp outside the representable range")

// The seconds, as time.Time.Unix() reports them, whose UnixNano is exact:
// math.MinInt64/1e9 and math.MaxInt64/1e9, rounded inward.
const (
	minUnixSec = -9223372036
	maxUnixSec = 9223372035
)

// NewSeries returns an empty named series.
func NewSeries(name string) *Series { return &Series{Name: name} }

// at rebuilds the time.Time of a stored point.
func (s *Series) at(p point) time.Time { return time.Unix(0, p.ns).In(s.loc) }

// Append adds an observation; timestamps must be non-decreasing.
func (s *Series) Append(at time.Time, v float64) error {
	if sec := at.Unix(); sec < minUnixSec || sec > maxUnixSec {
		return fmt.Errorf("%w: %v", ErrTimeRange, at)
	}
	ns := at.UnixNano()
	n := len(s.points)
	if n > 0 && ns < s.points[n-1].ns {
		return fmt.Errorf("trace: out-of-order point %v before %v", at, s.at(s.points[n-1]))
	}
	if n == 0 {
		s.loc = at.Location()
	}
	s.points = append(s.points, point{ns: ns, value: v})
	return nil
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.points) }

// Values returns the raw values in order.
func (s *Series) Values() []float64 {
	out := make([]float64, len(s.points))
	for i, p := range s.points {
		out[i] = p.value
	}
	return out
}

// Points returns a copy of all points.
func (s *Series) Points() []Point {
	out := make([]Point, len(s.points))
	for i, p := range s.points {
		out[i] = Point{At: s.at(p), Value: p.value}
	}
	return out
}

// Window returns the values observed in (from, to].
func (s *Series) Window(from, to time.Time) []float64 {
	var out []float64
	for _, p := range s.points {
		if at := s.at(p); at.After(from) && !at.After(to) {
			out = append(out, p.value)
		}
	}
	return out
}

// Scale returns a new series with every value multiplied by f — e.g. to
// convert credits/second per host into the paper's price per CPU cycle.
func (s *Series) Scale(f float64) *Series {
	out := &Series{Name: s.Name, loc: s.loc, points: make([]point, len(s.points))}
	for i, p := range s.points {
		out.points[i] = point{ns: p.ns, value: p.value * f}
	}
	return out
}

// Resample aggregates the series into buckets of width step (mean of points
// per bucket), starting at the first point's time. Empty buckets repeat the
// previous value, which matches how a spot price holds between reallocations.
func (s *Series) Resample(step time.Duration) (*Series, error) {
	if step <= 0 {
		return nil, errors.New("trace: non-positive resample step")
	}
	if len(s.points) == 0 {
		return &Series{Name: s.Name}, nil
	}
	out := &Series{Name: s.Name, loc: s.loc}
	start := s.at(s.points[0])
	end := s.at(s.points[len(s.points)-1])
	i := 0
	last := s.points[0].value
	for t := start; !t.After(end); t = t.Add(step) {
		hi := t.Add(step)
		var sum float64
		var n int
		for i < len(s.points) && s.at(s.points[i]).Before(hi) {
			sum += s.points[i].value
			n++
			i++
		}
		v := last
		if n > 0 {
			v = sum / float64(n)
			last = v
		}
		// t lies within [start, end], so it is representable like they are.
		out.points = append(out.points, point{ns: t.UnixNano(), value: v})
	}
	return out, nil
}

// WriteCSV emits "unix_seconds,value" rows.
func (s *Series) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "time,%s\n", s.Name); err != nil {
		return err
	}
	for _, p := range s.points {
		if _, err := fmt.Fprintf(w, "%d,%s\n", s.at(p).Unix(),
			strconv.FormatFloat(p.value, 'g', -1, 64)); err != nil {
			return err
		}
	}
	return nil
}

// Recorder collects one series per host; attach Record as a market observer.
// Safe for concurrent use.
type Recorder struct {
	mu     sync.Mutex
	series map[string]*Series
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{series: make(map[string]*Series)}
}

// Record appends an observation for host. Out-of-order points are dropped
// (a restarted market may briefly replay).
func (r *Recorder) Record(host string, at time.Time, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	_ = r.seriesLocked(host).Append(at, v)
}

// seriesLocked returns host's series, creating it on first use.
func (r *Recorder) seriesLocked(host string) *Series {
	s, ok := r.series[host]
	if !ok {
		s = NewSeries(host)
		r.series[host] = s
	}
	return s
}

// Observer returns a function with the market-observer signature bound to
// one host. It resolves the host's series once, at the first observation
// (so a host that never clears still has no series), and appends to it
// directly afterwards instead of looking the host up on every clear.
func (r *Recorder) Observer(host string) func(price float64, at time.Time) {
	var s *Series // guarded by r.mu
	return func(price float64, at time.Time) {
		r.mu.Lock()
		if s == nil {
			s = r.seriesLocked(host)
		}
		_ = s.Append(at, price)
		r.mu.Unlock()
	}
}

// Series returns the series for host (nil if none).
func (r *Recorder) Series(host string) *Series {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.series[host]
}

// Hosts returns recorded host names, sorted.
func (r *Recorder) Hosts() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.series))
	for h := range r.series {
		out = append(out, h)
	}
	sort.Strings(out)
	return out
}
