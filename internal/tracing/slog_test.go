package tracing

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"testing"
)

func logLine(t *testing.T, buf *bytes.Buffer) map[string]any {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(bytes.TrimSpace(buf.Bytes()), &m); err != nil {
		t.Fatalf("bad JSON log line %q: %v", buf.String(), err)
	}
	return m
}

func TestHandlerStampsContextSpan(t *testing.T) {
	tr := newTestTracer()
	var buf bytes.Buffer
	logger := slog.New(NewHandler(slog.NewJSONHandler(&buf, nil)))

	s, ctx := tr.StartSpan(context.Background(), "op")
	logger.InfoContext(ctx, "hello")
	s.End()

	m := logLine(t, &buf)
	if m["trace_id"] != s.Context().TraceID.String() || m["span_id"] != s.Context().SpanID.String() {
		t.Fatalf("log line missing span ids: %v", m)
	}
}

// TestHandlerIgnoresAnotherGoroutinesScope: a span pushed as the tracer's
// scope by one goroutine (JobService.submit does, under its lock) must not
// stamp a line logged meanwhile by another goroutine with no span in its
// context — the scope stack is process-wide, so it cannot say whose line it
// is.
func TestHandlerIgnoresAnotherGoroutinesScope(t *testing.T) {
	tr := Default()
	old := tr.SampleRatio()
	tr.SetSampleRatio(1)
	defer tr.SetSampleRatio(old)
	var buf bytes.Buffer
	logger := slog.New(NewHandler(slog.NewJSONHandler(&buf, nil)))

	pushed, logged, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	s, _ := tr.StartSpan(context.Background(), "submit")
	go func() {
		defer close(done)
		release := tr.PushScope(s)
		close(pushed)
		<-logged
		release()
		s.End()
	}()
	<-pushed
	logger.Warn("slo: objective violating") // another goroutine, background ctx
	close(logged)
	<-done

	m := logLine(t, &buf)
	if id, ok := m["trace_id"]; ok {
		t.Fatalf("line from another goroutine stamped with the pushed span's trace %v (span %s): %v",
			id, s.Context().TraceID, m)
	}
}

func TestHandlerNoSpanNoStamp(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(NewHandler(slog.NewJSONHandler(&buf, nil)))
	logger.Info("plain")
	m := logLine(t, &buf)
	if _, ok := m["trace_id"]; ok {
		t.Fatalf("unexpected trace_id on plain line: %v", m)
	}
}

func TestInitSlogServiceAttr(t *testing.T) {
	var buf bytes.Buffer
	logger := InitSlog("bankd", &buf, slog.LevelInfo)
	defer slog.SetDefault(slog.New(slog.NewJSONHandler(bytes.NewBuffer(nil), nil)))
	logger.Info("up")
	m := logLine(t, &buf)
	if m["service"] != "bankd" {
		t.Fatalf("missing service attr: %v", m)
	}
	buf.Reset()
	logger.Debug("hidden")
	if buf.Len() != 0 {
		t.Fatalf("debug leaked at info level: %q", buf.String())
	}
}
