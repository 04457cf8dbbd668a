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
