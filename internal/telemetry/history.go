package telemetry

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"time"

	"tycoongrid/internal/metrics"
	"tycoongrid/internal/tsdb"
)

// History endpoint limits: bounded output no matter what the query asks.
const (
	maxHistoryBuckets = 1000
	maxHistorySeries  = 64
	maxHistoryWindow  = 24 * time.Hour
	defaultBuckets    = 60
	defaultWindow     = 5 * time.Minute

	// maxHistoryPoints ends a page of raw points early: with one more series
	// of tsdb.DefaultCapacity on top, the body stays inside the 1 MiB the
	// HTTP clients read (httpapi.MaxBodyBytes).
	maxHistoryPoints = 8192
)

// historyQuery is a validated /metrics/history request.
type historyQuery struct {
	series  string // empty = list series names only
	after   string // continuation: only names sorting after this one
	window  time.Duration
	buckets int
	raw     bool
}

// parseHistoryQuery validates the query string. Errors are user errors
// (HTTP 400); the handler never panics on hostile input — FuzzHistoryQuery
// enforces exactly that.
func parseHistoryQuery(q url.Values) (historyQuery, error) {
	out := historyQuery{window: defaultWindow, buckets: defaultBuckets}
	out.series = q.Get("series")
	out.after = q.Get("after")
	if out.after != "" && out.series == "" {
		return out, fmt.Errorf("after %q continues a series query, and there is none", out.after)
	}
	if w := q.Get("window"); w != "" {
		d, err := time.ParseDuration(w)
		if err != nil {
			return out, fmt.Errorf("bad window %q: %v", w, err)
		}
		if d <= 0 {
			return out, fmt.Errorf("window must be positive, got %q", w)
		}
		if d > maxHistoryWindow {
			d = maxHistoryWindow
		}
		out.window = d
	}
	if b := q.Get("buckets"); b != "" {
		// Atoi, not Sscanf("%d"): the latter stops at the first non-digit
		// and would serve buckets=12abc as 12.
		n, err := strconv.Atoi(b)
		if err != nil || n < 1 {
			return out, fmt.Errorf("bad buckets %q", b)
		}
		if n > maxHistoryBuckets {
			n = maxHistoryBuckets
		}
		out.buckets = n
	}
	switch q.Get("raw") {
	case "", "0", "false":
	case "1", "true":
		out.raw = true
	default:
		return out, fmt.Errorf("bad raw %q", q.Get("raw"))
	}
	return out, nil
}

// HistorySeries is one series' slice of a HistoryResponse.
type HistorySeries struct {
	Name    string            `json:"name"`
	Points  []tsdb.Point      `json:"points,omitempty"`
	Buckets []tsdb.BucketStat `json:"buckets,omitempty"`
	Dropped uint64            `json:"dropped,omitempty"`
	// Exemplars rides a histogram's ":p99" series: the traces last seen in
	// its buckets, so a slow quantile links to /debug/traces/{id}.
	Exemplars []metrics.Exemplar `json:"exemplars,omitempty"`
}

// HistoryResponse is the wire shape of /metrics/history and /fleet/history.
type HistoryResponse struct {
	WindowSeconds float64         `json:"window_seconds,omitempty"`
	Names         []string        `json:"names,omitempty"`
	Series        []HistorySeries `json:"series,omitempty"`
	Truncated     bool            `json:"truncated,omitempty"`
}

// HistoryHandler serves windowed series history from db as JSON.
//
//	GET /metrics/history                          -> {"names":[...]}
//	GET /metrics/history?series=N&window=5m       -> downsampled buckets
//	GET /metrics/history?series=N&raw=1           -> raw points
//	GET /metrics/history?series=N&after=NAME      -> the page after NAME
//
// series accepts an exact name or a pattern with one '*' (tsdb.DB.Match); windows are
// tail-aligned at each series' newest point (tsdb.Series.Window semantics),
// so a quiet series shows its last activity instead of an empty frame. A
// response is one page — at most maxHistorySeries series in name order, fewer
// once it carries maxHistoryPoints raw points — and says "truncated" when
// names remain; after=<last name served> asks for the next page.
//
// exemplars, when not nil, is read once per request (metrics.Registry.Exemplars
// has the shape) and attached to the ":p99" series of the histograms it names.
func HistoryHandler(db *tsdb.DB, exemplars func() map[string][]metrics.Exemplar) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		q, err := parseHistoryQuery(r.URL.Query())
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)

		if q.series == "" {
			_ = enc.Encode(HistoryResponse{Names: db.Names()})
			return
		}
		names := db.Match(q.series) // sorted
		if q.after != "" {
			names = names[sort.SearchStrings(names, q.after+"\x00"):]
		}
		var traced map[string][]metrics.Exemplar
		if exemplars != nil {
			traced = exemplars()
		}
		resp := HistoryResponse{WindowSeconds: q.window.Seconds()}
		points := 0
		for _, name := range names {
			if len(resp.Series) == maxHistorySeries || points >= maxHistoryPoints {
				resp.Truncated = true
				break
			}
			s, ok := db.Lookup(name)
			if !ok {
				continue
			}
			pts := s.Window(q.window)
			hs := HistorySeries{Name: name, Dropped: s.Dropped()}
			if fam, ok := strings.CutSuffix(name, tsdb.SuffixP99); ok {
				hs.Exemplars = traced[fam]
			}
			if q.raw {
				hs.Points = pts
				points += len(pts)
			} else {
				hs.Buckets = tsdb.Downsample(pts, q.buckets)
			}
			resp.Series = append(resp.Series, hs)
		}
		_ = enc.Encode(resp)
	})
}
