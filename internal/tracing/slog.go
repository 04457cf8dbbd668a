package tracing

import (
	"context"
	"io"
	"log/slog"
)

// Handler wraps a slog.Handler and stamps trace_id/span_id onto every record
// whose context carries a span. All daemons share it via InitSlog so log
// lines join up with traces. Log with the span's context (slog.InfoContext
// and friends) to stamp it.
type Handler struct {
	inner slog.Handler
}

// NewHandler wraps inner.
func NewHandler(inner slog.Handler) *Handler {
	return &Handler{inner: inner}
}

// Enabled implements slog.Handler.
func (h *Handler) Enabled(ctx context.Context, level slog.Level) bool {
	return h.inner.Enabled(ctx, level)
}

// Handle stamps the context span's ids onto the record, then delegates.
func (h *Handler) Handle(ctx context.Context, rec slog.Record) error {
	if sc := SpanFromContext(ctx).Context(); sc.Valid() {
		rec.AddAttrs(
			slog.String("trace_id", sc.TraceID.String()),
			slog.String("span_id", sc.SpanID.String()),
		)
	}
	return h.inner.Handle(ctx, rec)
}

// WithAttrs implements slog.Handler.
func (h *Handler) WithAttrs(attrs []slog.Attr) slog.Handler {
	return &Handler{inner: h.inner.WithAttrs(attrs)}
}

// WithGroup implements slog.Handler.
func (h *Handler) WithGroup(name string) slog.Handler {
	return &Handler{inner: h.inner.WithGroup(name)}
}

// InitSlog installs the process-wide logger: JSON records to w with a
// "service" attribute on every line and trace/span ids stamped from the
// record's context. Returns the logger for callers that want a handle.
func InitSlog(service string, w io.Writer, level slog.Level) *slog.Logger {
	inner := slog.NewJSONHandler(w, &slog.HandlerOptions{Level: level})
	logger := slog.New(NewHandler(inner)).With(slog.String("service", service))
	slog.SetDefault(logger)
	return logger
}
