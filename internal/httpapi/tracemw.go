package httpapi

import (
	"fmt"
	"net/http"
	"time"

	"tycoongrid/internal/tracing"
)

// SpanWire is the JSON form of one span on /debug/traces/{id}.
type SpanWire struct {
	TraceID    string         `json:"trace_id"`
	SpanID     string         `json:"span_id"`
	ParentID   string         `json:"parent_id,omitempty"`
	Name       string         `json:"name"`
	Start      time.Time      `json:"start"`
	End        *time.Time     `json:"end,omitempty"`
	DurationMS float64        `json:"duration_ms"`
	Error      string         `json:"error,omitempty"`
	Attrs      []tracing.Attr `json:"attrs,omitempty"`
}

// spanWire flattens a span for the wire.
func spanWire(s *tracing.Span) SpanWire {
	w := SpanWire{
		TraceID:    s.Context().TraceID.String(),
		SpanID:     s.Context().SpanID.String(),
		Name:       s.Name(),
		Start:      s.StartTime(),
		DurationMS: float64(s.Duration()) / float64(time.Millisecond),
		Error:      s.Err(),
		Attrs:      s.Attrs(),
	}
	if p := s.Parent(); !p.IsZero() {
		w.ParentID = p.String()
	}
	if e := s.EndTime(); !e.IsZero() {
		w.End = &e
	}
	return w
}

// TraceSummaryWire is one row of the /debug/traces listing.
type TraceSummaryWire struct {
	TraceID    string    `json:"trace_id"`
	Root       string    `json:"root"`
	Spans      int       `json:"spans"`
	Errors     int       `json:"errors"`
	Start      time.Time `json:"start"`
	DurationMS float64   `json:"duration_ms"`
}

// TraceListHandler lists stored traces, most recent first (nil tracer means
// the default one).
func TraceListHandler(t *tracing.Tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := t
		if tr == nil {
			tr = tracing.Default()
		}
		sums := tr.Summaries()
		out := make([]TraceSummaryWire, 0, len(sums))
		for _, s := range sums {
			out = append(out, TraceSummaryWire{
				TraceID:    s.TraceID.String(),
				Root:       s.Root,
				Spans:      s.Spans,
				Errors:     s.Errors,
				Start:      s.Start,
				DurationMS: float64(s.Duration) / float64(time.Millisecond),
			})
		}
		WriteJSON(w, out)
	})
}

// TraceGetHandler serves one trace's spans as JSON, or as an ASCII tree with
// ?format=tree (nil tracer means the default one).
func TraceGetHandler(t *tracing.Tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := t
		if tr == nil {
			tr = tracing.Default()
		}
		id, ok := tracing.ParseTraceID(r.PathValue("id"))
		if !ok {
			WriteError(w, http.StatusBadRequest, fmt.Errorf("httpapi: bad trace id"))
			return
		}
		spans := tr.Spans(id)
		if len(spans) == 0 {
			WriteError(w, http.StatusNotFound, fmt.Errorf("httpapi: unknown trace"))
			return
		}
		if r.URL.Query().Get("format") == "tree" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			_, _ = w.Write([]byte(tracing.RenderTree(spans)))
			return
		}
		out := make([]SpanWire, 0, len(spans))
		for _, s := range spans {
			out = append(out, spanWire(s))
		}
		WriteJSON(w, out)
	})
}
