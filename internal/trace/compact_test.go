package trace

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
	"sync"
	"testing"
	"time"

	"tycoongrid/internal/rng"
)

// refSeries is the series as it stood before points were stored
// pointer-free: a slice of whole time.Time values and the original Window,
// Resample and WriteCSV bodies. The compact series is differentially tested
// against it.
type refSeries struct {
	name   string
	points []Point
}

func (s *refSeries) append(at time.Time, v float64) error {
	if n := len(s.points); n > 0 && at.Before(s.points[n-1].At) {
		return errors.New("out of order")
	}
	s.points = append(s.points, Point{At: at, Value: v})
	return nil
}

func (s *refSeries) window(from, to time.Time) []float64 {
	var out []float64
	for _, p := range s.points {
		if p.At.After(from) && !p.At.After(to) {
			out = append(out, p.Value)
		}
	}
	return out
}

func (s *refSeries) resample(step time.Duration) []Point {
	if len(s.points) == 0 {
		return nil
	}
	var out []Point
	start := s.points[0].At
	end := s.points[len(s.points)-1].At
	i := 0
	last := s.points[0].Value
	for t := start; !t.After(end); t = t.Add(step) {
		hi := t.Add(step)
		var sum float64
		var n int
		for i < len(s.points) && s.points[i].At.Before(hi) {
			sum += s.points[i].Value
			n++
			i++
		}
		v := last
		if n > 0 {
			v = sum / float64(n)
			last = v
		}
		out = append(out, Point{At: t, Value: v})
	}
	return out
}

func (s *refSeries) writeCSV(w io.Writer) {
	fmt.Fprintf(w, "time,%s\n", s.name)
	for _, p := range s.points {
		fmt.Fprintf(w, "%d,%s\n", p.At.Unix(), strconv.FormatFloat(p.Value, 'g', -1, 64))
	}
}

func samePoints(t *testing.T, what string, got, want []Point) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d points, reference %d", what, len(got), len(want))
	}
	for i := range want {
		// == on time.Time: same instant, zone pointer and representation.
		if got[i] != want[i] {
			t.Fatalf("%s: point %d = %v, reference %v", what, i, got[i], want[i])
		}
	}
}

// TestSeriesMatchesTimeValuedReference appends one seeded stream — irregular
// gaps, repeated timestamps, out-of-order points — to the compact series and
// the reference, on simulation time (UTC) and on a wall clock in a non-UTC
// zone, and compares every read-side method.
func TestSeriesMatchesTimeValuedReference(t *testing.T) {
	clocks := map[string]time.Time{
		"sim-utc":    time.Date(2006, time.June, 19, 0, 0, 0, 0, time.UTC),
		"wall-zoned": time.Date(2026, time.September, 27, 23, 59, 58, 987654321, time.FixedZone("CEST", 2*3600)),
		"pre-epoch":  time.Date(1969, time.December, 31, 23, 59, 50, 5, time.FixedZone("EST", -5*3600)),
	}
	for name, start := range clocks {
		t.Run(name, func(t *testing.T) {
			src := rng.New(5)
			s := NewSeries("h7")
			ref := &refSeries{name: "h7"}
			now := start
			for op := 0; op < 1500; op++ {
				at := now
				switch src.Intn(10) {
				case 0:
					at = now.Add(-time.Duration(1+src.Intn(90)) * time.Second) // out of order
				case 1:
					// equal timestamp: accepted by a series
				default:
					now = now.Add(time.Duration(1+src.Intn(25_000_000_000)) * time.Nanosecond)
					at = now
				}
				v := src.Uniform(0, 2)
				got, want := s.Append(at, v), ref.append(at, v)
				if (got == nil) != (want == nil) {
					t.Fatalf("op %d: Append(%v) = %v, reference %v", op, at, got, want)
				}
			}
			if s.Len() != len(ref.points) {
				t.Fatalf("Len %d, reference %d", s.Len(), len(ref.points))
			}
			samePoints(t, "Points", s.Points(), ref.points)
			for i, v := range s.Values() {
				if v != ref.points[i].Value {
					t.Fatalf("Values()[%d] = %v, reference %v", i, v, ref.points[i].Value)
				}
			}
			for trial := 0; trial < 200; trial++ {
				from := start.Add(time.Duration(src.Intn(int(now.Sub(start)))))
				to := from.Add(time.Duration(src.Intn(int(10 * time.Minute))))
				got, want := s.Window(from, to), ref.window(from, to)
				if len(got) != len(want) {
					t.Fatalf("Window(%v, %v): %d values, reference %d", from, to, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("Window(%v, %v)[%d] = %v, reference %v", from, to, i, got[i], want[i])
					}
				}
			}
			for _, step := range []time.Duration{time.Second, 10 * time.Second, 7*time.Minute + 3, 1000 * time.Hour} {
				rs, err := s.Resample(step)
				if err != nil {
					t.Fatal(err)
				}
				samePoints(t, fmt.Sprintf("Resample(%v)", step), rs.Points(), ref.resample(step))
			}
			half := s.Scale(0.5).Points()
			for i, p := range ref.points {
				if half[i] != (Point{At: p.At, Value: p.Value * 0.5}) {
					t.Fatalf("Scale point %d = %v", i, half[i])
				}
			}
			var got, want bytes.Buffer
			if err := s.WriteCSV(&got); err != nil {
				t.Fatal(err)
			}
			ref.writeCSV(&want)
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("WriteCSV differs from the reference:\n%s\nvs\n%s", got.String()[:200], want.String()[:200])
			}
		})
	}
}

func TestSeriesRejectsUnrepresentableTimes(t *testing.T) {
	s := NewSeries("h")
	for _, at := range []time.Time{{}, time.Date(1600, 1, 1, 0, 0, 0, 0, time.UTC), time.Date(2300, 1, 1, 0, 0, 0, 0, time.UTC)} {
		if err := s.Append(at, 1); !errors.Is(err, ErrTimeRange) {
			t.Errorf("Append(%v) = %v, want ErrTimeRange", at, err)
		}
	}
	if s.Len() != 0 {
		t.Errorf("rejected points were stored: len %d", s.Len())
	}
}

// TestRecorderObserverMatchesRecord: the pre-resolved observer and Record
// write the same series, a host gets its series at its first observation and
// not before, and concurrent hosts do not disturb each other (-race).
func TestRecorderObserverMatchesRecord(t *testing.T) {
	r := NewRecorder()
	observers := map[string]func(float64, time.Time){}
	for _, h := range []string{"h1", "h2", "h3"} {
		observers[h] = r.Observer(h)
	}
	if got := r.Hosts(); len(got) != 0 {
		t.Fatalf("hosts before any observation: %v", got)
	}
	var wg sync.WaitGroup
	for _, h := range []string{"h1", "h2"} {
		wg.Add(1)
		go func(h string) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if i%2 == 0 {
					observers[h](float64(i), at(time.Duration(i)*time.Second))
				} else {
					r.Record(h, at(time.Duration(i)*time.Second), float64(i))
				}
				_ = r.Hosts()
			}
		}(h)
	}
	wg.Wait()
	if got := r.Hosts(); len(got) != 2 || got[0] != "h1" || got[1] != "h2" {
		t.Fatalf("hosts = %v, want [h1 h2]", got)
	}
	for _, h := range []string{"h1", "h2"} {
		pts := r.Series(h).Points()
		if len(pts) != 500 {
			t.Fatalf("%s: %d points, want 500", h, len(pts))
		}
		for i, p := range pts {
			if p.Value != float64(i) || !p.At.Equal(at(time.Duration(i)*time.Second)) {
				t.Fatalf("%s point %d = %v", h, i, p)
			}
		}
	}
}
