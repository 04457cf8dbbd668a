package telemetry

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"tycoongrid/internal/metrics"
	"tycoongrid/internal/tsdb"
)

// FuzzFleetIngest feeds arbitrary bytes to the aggregator as a peer's
// /metrics/history body, decoded as the scrape client decodes it. A peer is
// outside this process: whatever it sends, ingest must not panic, every fleet
// series must stay under "<peer>/" with finite values and strictly increasing
// timestamps, and a page it rejects must leave no trace.
func FuzzFleetIngest(f *testing.F) {
	seeds := []string{
		``,
		`{}`,
		`null`,
		`{"names":["a","b"]}`,
		`{"window_seconds":300,"series":[{"name":"price","points":[{"t":1000,"v":1.5},{"t":2000,"v":2.5}]}]}`,
		`{"series":[{"name":"price","points":[{"t":1000,"v":9}]},{"name":"lat:p99","points":[{"t":1500,"v":0.2}],"exemplars":[{"value":0.7,"trace_id":"abc","at":"2026-01-01T00:00:00Z"}]}],"truncated":true}`,
		`{"series":[{"name":"price","points":[{"t":3000,"v":1},{"t":2000,"v":2},{"t":3000,"v":3},{"t":-5,"v":4}]}]}`,
		`{"series":[{"name":"price","points":[{"t":4000,"v":1e999}]}]}`,
		`{"series":[{"name":"price","points":[{"t":4000,"v":NaN}]}]}`,
		`{"series":[{"name":"../../other/price","points":[{"t":1,"v":1}]},{"name":"","points":[{"t":1,"v":1}]}]}`,
		`{"series":[{"name":"price","points":[{"t":9223372036854775807,"v":1},{"t":9223372036854775808,"v":1}]}]}`,
		`{"series":[{"name":"price","buckets":[{"start":1,"end":2,"count":1,"mean":1}]}],"truncated":true}`,
		`{"series":[],"truncated":true}`,
		`{"series":` + strings.Repeat(`[`, 64),
		`{"series":[` + strings.Repeat(`{"name":"x"},`, maxHistorySeries) + `{"name":"y"}]}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		var page HistoryResponse
		if json.Unmarshal(body, &page) != nil {
			return // the client's decode error: the scrape fails before ingest
		}
		agg := NewAggregator(AggregatorConfig{
			Peers:    []Peer{{Name: "bankd", BaseURL: "http://bankd.invalid"}},
			Registry: metrics.NewRegistry(),
		})
		// Two fixed points first, so the page lands on a series with history.
		seed := HistoryResponse{Series: []HistorySeries{{Name: "price", Points: []tsdb.Point{{T: 1000, V: 1}, {T: 2000, V: 2}}}}}
		if _, _, _, err := agg.ingest("bankd", seed); err != nil {
			t.Fatal(err)
		}
		before := len(agg.DB().Names())

		appended, exemplars, next, err := agg.ingest("bankd", page) // must not panic
		if err != nil && (appended != 0 || len(exemplars) != 0 || next != "" || len(agg.DB().Names()) != before) {
			t.Fatalf("rejected page left a trace: appended %d, %d exemplars, next %q, series %v",
				appended, len(exemplars), next, agg.DB().Names())
		}
		stored := 0
		for _, name := range agg.DB().Names() {
			if !strings.HasPrefix(name, "bankd/") {
				t.Fatalf("series %q is outside the peer's prefix", name)
			}
			s, _ := agg.DB().Lookup(name)
			pts := s.Since(math.MinInt64)
			stored += len(pts)
			for i, p := range pts {
				if math.IsNaN(p.V) || math.IsInf(p.V, 0) {
					t.Fatalf("%s[%d] = %v", name, i, p.V)
				}
				if i > 0 && p.T <= pts[i-1].T {
					t.Fatalf("%s: point %d at %d follows %d", name, i, p.T, pts[i-1].T)
				}
			}
		}
		if stored > 2+appended {
			t.Fatalf("%d points stored, %d reported appended", stored-2, appended)
		}
		for _, ex := range exemplars {
			if ex.Peer != "bankd" {
				t.Fatalf("exemplar attributed to %q", ex.Peer)
			}
		}
	})
}
