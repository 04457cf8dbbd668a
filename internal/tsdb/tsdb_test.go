package tsdb

import (
	"math"
	"strings"
	"testing"
	"time"
)

func tn(sec int64) int64 { return sec * int64(time.Second) }

func fill(s *Ring, secs ...int64) {
	for _, sec := range secs {
		if !s.AppendNanos(tn(sec), float64(sec)) {
			panic("append rejected in fixture")
		}
	}
}

// tail is the tail-aligned window of d a /metrics/history query answers:
// every point within d of the newest, the newest included.
func tail(s *Ring, d time.Duration) []Point {
	last, ok := s.Latest()
	if !ok {
		return nil
	}
	return s.Range(last.T-d.Nanoseconds(), last.T)
}

func TestRingMonotonicAppend(t *testing.T) {
	s := NewRing(8)
	if !s.AppendNanos(tn(10), 1) {
		t.Fatal("first append rejected")
	}
	if s.AppendNanos(tn(10), 2) {
		t.Fatal("equal timestamp must be dropped")
	}
	if s.AppendNanos(tn(9), 2) {
		t.Fatal("older timestamp must be dropped")
	}
	if s.AppendNanos(tn(11), math.NaN()) || s.AppendNanos(tn(12), math.Inf(1)) {
		t.Fatal("non-finite values must be dropped")
	}
	if got := s.Dropped(); got != 4 {
		t.Fatalf("dropped = %d, want 4", got)
	}
	if got := s.Len(); got != 1 {
		t.Fatalf("len = %d, want 1", got)
	}
	// Any finite value is held, negatives too: a conservation drift is signed.
	if !s.AppendNanos(tn(13), -1) || s.Len() != 2 {
		t.Fatal("a negative value must be held")
	}
}

// TestRingWindowAtWraparound drives a capacity-4 ring past wraparound and
// asserts tail-aligned window queries at every boundary the ring can
// present: window entirely inside the live tail, window spanning the
// physical wrap point, window larger than retention, and the exact
// inclusive/exclusive edges of the window start.
func TestRingWindowAtWraparound(t *testing.T) {
	s := NewRing(4)
	fill(s, 1, 2, 3, 4, 5, 6) // retains 3,4,5,6; physical buffer wrapped twice

	if got := s.Len(); got != 4 {
		t.Fatalf("len = %d, want 4", got)
	}
	last, ok := s.Latest()
	if !ok || last.T != tn(6) || last.V != 6 {
		t.Fatalf("latest = %+v, want t=6s v=6", last)
	}

	cases := []struct {
		window time.Duration
		want   []int64 // expected point values (== their seconds)
	}{
		{1 * time.Second, []int64{6}},                          // window smaller than spacing: newest only
		{2 * time.Second, []int64{5, 6}},                       // crosses the head slot
		{3 * time.Second, []int64{4, 5, 6}},                    // spans the physical wrap point
		{4 * time.Second, []int64{3, 4, 5, 6}},                 // exactly the full retention
		{time.Hour, []int64{3, 4, 5, 6}},                       // bigger than retention: clipped, no phantom points
		{3*time.Second + time.Nanosecond, []int64{3, 4, 5, 6}}, // boundary: start lands exactly on oldest
	}
	for _, tc := range cases {
		got := tail(s, tc.window)
		if len(got) != len(tc.want) {
			t.Fatalf("Window(%v) returned %d points %v, want %v", tc.window, len(got), got, tc.want)
		}
		for i, w := range tc.want {
			if got[i].T != tn(w) || got[i].V != float64(w) {
				t.Fatalf("Window(%v)[%d] = %+v, want t=%ds", tc.window, i, got[i], w)
			}
			if i > 0 && got[i].T <= got[i-1].T {
				t.Fatalf("Window(%v) not ascending: %v", tc.window, got)
			}
		}
	}

	// Since with a cutoff inside the overwritten prefix returns only live data.
	if got := s.Since(tn(1)); len(got) != 4 || got[0].T != tn(3) {
		t.Fatalf("Since(1s) = %v, want the 4 retained points from 3s", got)
	}
	if got := s.Since(tn(7)); got != nil {
		t.Fatalf("Since(future) = %v, want nil", got)
	}
}

// TestRingWindowBoundaryExactlyAtWrapSlot appends one more point after
// every window query, so the wrap cursor sits at each physical index at
// least once while queries keep returning the correct logical tail.
func TestRingWindowBoundaryExactlyAtWrapSlot(t *testing.T) {
	s := NewRing(3)
	for sec := int64(1); sec <= 12; sec++ {
		s.AppendNanos(tn(sec), float64(sec))
		pts := tail(s, 2*time.Second)
		wantLen := 2
		if sec == 1 {
			wantLen = 1
		}
		if len(pts) != wantLen {
			t.Fatalf("after %ds: window len = %d, want %d (%v)", sec, len(pts), wantLen, pts)
		}
		if pts[len(pts)-1].T != tn(sec) {
			t.Fatalf("after %ds: window tail = %+v, want newest", sec, pts[len(pts)-1])
		}
	}
}

// TestRangeAnchoredAtAnInstant: the window the SLO evaluator reads, (end-d,
// end] at its clock, whatever the series' newest point.
func TestRangeAnchoredAtAnInstant(t *testing.T) {
	s := NewRing(8)
	fill(s, 10, 20, 30)
	got := s.Range(tn(15), tn(25))
	if len(got) != 1 || got[0].T != tn(20) {
		t.Fatalf("Range(15s, 25s) = %v, want just t=20s", got)
	}
	// Anchored after the data: empty window, no phantom freshness.
	if got := s.Range(tn(95), tn(100)); len(got) != 0 {
		t.Fatalf("Range far future = %v, want empty", got)
	}
}

func TestDownsample(t *testing.T) {
	var pts []Point
	for i := int64(0); i < 100; i++ {
		pts = append(pts, Point{T: tn(i), V: float64(i)})
	}
	got := Downsample(pts, 10)
	if len(got) != 10 {
		t.Fatalf("bucket count = %d, want 10", len(got))
	}
	total := 0
	for i, b := range got {
		total += b.Count
		if b.Count == 0 {
			t.Fatalf("bucket %d empty on dense input", i)
		}
		if b.Min > b.Mean || b.Mean > b.Max || b.P99 > b.Max || b.P99 < b.Min {
			t.Fatalf("bucket %d stats out of order: %+v", i, b)
		}
		if i > 0 && got[i-1].End != b.Start {
			t.Fatalf("buckets %d/%d not contiguous: %d vs %d", i-1, i, got[i-1].End, b.Start)
		}
	}
	if total != 100 {
		t.Fatalf("points partitioned = %d, want all 100", total)
	}
	if got[9].End != tn(99) {
		t.Fatalf("final bucket must end at the newest point, got %d", got[9].End)
	}

	// Sparse input: empty buckets stay in place with Count 0.
	sparse := []Point{{T: tn(0), V: 1}, {T: tn(9), V: 3}}
	buckets := Downsample(sparse, 3)
	if len(buckets) != 3 || buckets[0].Count != 1 || buckets[1].Count != 0 || buckets[2].Count != 1 {
		t.Fatalf("sparse downsample = %+v, want occupied/empty/occupied", buckets)
	}
	if Downsample(nil, 5) != nil {
		t.Fatal("empty input must return nil")
	}
	if one := Downsample([]Point{{T: tn(5), V: 2}}, 7); len(one) != 1 || one[0].Count != 1 {
		t.Fatalf("single point must collapse to one bucket, got %+v", one)
	}
}

func TestDBMatch(t *testing.T) {
	db := NewDB(16)
	db.Series("a{shard=\"0\"}:rate")
	db.Series("a{shard=\"1\"}:rate")
	db.Series("b")
	if got := db.Match("a{shard=*"); len(got) != 2 {
		t.Fatalf("prefix match = %v, want 2 series", got)
	}
	if got := db.Match("b"); len(got) != 1 || got[0] != "b" {
		t.Fatalf("exact match = %v", got)
	}
	if got := db.Match("zzz"); got != nil {
		t.Fatalf("missing exact = %v, want nil", got)
	}
	if got := db.Names(); len(got) != 3 || got[2] != "b" {
		t.Fatalf("names = %v, want sorted 3", got)
	}

	// A mid-string '*' keeps its suffix: a ":p99" pattern must not sweep in
	// ":rate" series, and the two ends may not overlap inside one name.
	db.Series(`lat{route="/bids"}:p99`)
	db.Series(`lat{route="/bids"}:rate`)
	db.Series(`lat{route="/auction"}:p99`)
	db.Series("ab")
	for _, c := range []struct {
		pattern string
		want    string
	}{
		{"lat{*:p99", `lat{route="/auction"}:p99 lat{route="/bids"}:p99`},
		{"*:rate", `a{shard="0"}:rate a{shard="1"}:rate lat{route="/bids"}:rate`},
		{`a{shard=*"}:rate`, `a{shard="0"}:rate a{shard="1"}:rate`},
		{"*", strings.Join(db.Names(), " ")},
		{"ab*b", ""},
		{"a*b", "ab"},
		{"nope*:p99", ""},
	} {
		if got := strings.Join(db.Match(c.pattern), " "); got != c.want {
			t.Errorf("Match(%q) = %q, want %q", c.pattern, got, c.want)
		}
	}
}
