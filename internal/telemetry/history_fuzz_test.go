package telemetry

import (
	"encoding/json"
	"net/http/httptest"
	"net/url"
	"strconv"
	"testing"
	"time"

	"tycoongrid/internal/tsdb"
)

// FuzzHistoryQuery hammers the /metrics/history query parser and handler
// with arbitrary query strings: the handler must never panic, and must
// answer either HTTP 400 or valid JSON — nothing in between.
func FuzzHistoryQuery(f *testing.F) {
	seeds := []string{
		"",
		"series=price",
		"series=price&window=5m&buckets=60",
		"series=price&raw=1",
		"series=*&window=24h",
		"series=http_request_duration_seconds{*:p99&window=1h&buckets=1000",
		"window=banana",
		"buckets=-1",
		"series=price&buckets=12abc",
		"buckets=99999999999999999999",
		"series=price&window=9999999h",
		"raw=maybe",
		"series=%00%ff&window=1ns",
		"series=a&series=b&window=1s&window=2s",
		"series=*&raw=1&after=price",
		"series=p*&after=%00%ff&window=24h",
		"series=*&raw=1&after=zzz&after=a",
		"after=price",
	}
	for _, s := range seeds {
		f.Add(s)
	}

	db := tsdb.NewDB(64)
	s := db.Series("price")
	base := time.Unix(1000, 0)
	for i := 0; i < 50; i++ {
		s.AppendNanos(base.Add(time.Duration(i)*time.Second).UnixNano(), float64(i))
	}
	h := HistoryHandler(db, nil)

	f.Fuzz(func(t *testing.T, rawQuery string) {
		req := httptest.NewRequest("GET", "/metrics/history", nil)
		req.URL.RawQuery = rawQuery
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req) // must not panic

		switch rec.Code {
		case 200:
			var page HistoryResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
				t.Fatalf("200 with invalid JSON for query %q: %v", rawQuery, err)
			}
			// A continuation never serves the name it continues after, or
			// one before it: a puller's next page always advances.
			for _, hs := range page.Series {
				if after := req.URL.Query().Get("after"); hs.Name <= after {
					t.Fatalf("query %q served %q, not after %q", rawQuery, hs.Name, after)
				}
			}
		case 400:
			// fine: rejected input
		default:
			t.Fatalf("query %q -> unexpected status %d", rawQuery, rec.Code)
		}

		// The parser alone must also be total, and a bucket count it lets
		// through is a whole decimal number, not a number with a tail.
		if vals, err := url.ParseQuery(rawQuery); err == nil {
			_, perr := parseHistoryQuery(vals)
			if b := vals.Get("buckets"); b != "" && perr == nil {
				if _, err := strconv.Atoi(b); err != nil {
					t.Fatalf("query %q: buckets %q accepted", rawQuery, b)
				}
			}
		}
	})
}
