package tracing

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

func newTestTracer(opts ...Option) *Tracer {
	base := []Option{WithSeed(42)}
	return New(append(base, opts...)...)
}

func TestSpanLifecycle(t *testing.T) {
	tr := newTestTracer()
	root, ctx := tr.StartSpan(context.Background(), "root", String("k", "v"))
	if !root.Recording() {
		t.Fatal("root should record at ratio 1")
	}
	if got := SpanFromContext(ctx); got != root {
		t.Fatalf("ctx span = %v, want root", got)
	}
	child, _ := tr.StartSpan(ctx, "child")
	cc, rc := child.Context(), root.Context()
	if cc.TraceID != rc.TraceID {
		t.Fatal("child joined a different trace")
	}
	if child.parent != rc.SpanID {
		t.Fatal("child parent link wrong")
	}
	child.SetAttr(String("a", "b"))
	child.EndErr(errors.New("boom"))
	root.End()

	spans := tr.Spans(rc.TraceID)
	if len(spans) != 2 {
		t.Fatalf("stored %d spans, want 2", len(spans))
	}
	if spans[0] != root {
		t.Fatal("spans not sorted by start time")
	}
	if child.Err() != "boom" {
		t.Fatalf("child err = %q", child.Err())
	}
	if attrs := child.Attrs(); len(attrs) != 1 || attrs[0] != String("a", "b") {
		t.Fatalf("child attrs = %+v", attrs)
	}
	if d := root.Duration(); d < 0 {
		t.Fatalf("negative duration %v", d)
	}
}

func TestNilSpanIsSafe(t *testing.T) {
	var s *Span
	s.SetAttr(String("k", "v"))
	s.End()
	s.EndErr(errors.New("x"))
	if s.Recording() || s.Name() != "" {
		t.Fatal("nil span methods must be no-ops")
	}
	if s.Context().Valid() {
		t.Fatal("nil span context must be invalid")
	}
}

func TestSamplingZeroRecordsNothing(t *testing.T) {
	tr := newTestTracer()
	tr.SetSampleRatio(0)
	s, ctx := tr.StartSpan(context.Background(), "root")
	if s.Recording() {
		t.Fatal("ratio 0 span should not record")
	}
	// Children inherit the decision and stay cheap.
	c, _ := tr.StartSpan(ctx, "child")
	if c.Recording() {
		t.Fatal("child of unsampled span should not record")
	}
	c.End()
	s.End()
	started, sampled, stored, live := tr.Stats()
	if started != 2 || sampled != 0 || stored != 0 || live != 0 {
		t.Fatalf("stats = %d %d %d %d", started, sampled, stored, live)
	}
}

func TestChildInheritsSampledDecisionAcrossRatioChange(t *testing.T) {
	tr := newTestTracer()
	root, ctx := tr.StartSpan(context.Background(), "root")
	tr.SetSampleRatio(0) // flip after the root rolled
	child, _ := tr.StartSpan(ctx, "child")
	if !child.Recording() {
		t.Fatal("child must inherit the parent's sampled=true decision")
	}
	child.End()
	root.End()
}

func TestRingEviction(t *testing.T) {
	tr := newTestTracer(WithCapacity(4))
	var last SpanContext
	for i := 0; i < 10; i++ {
		s, _ := tr.StartSpan(context.Background(), fmt.Sprintf("s%d", i))
		last = s.Context()
		s.End()
	}
	_, _, stored, _ := tr.Stats()
	if stored != 4 {
		t.Fatalf("stored = %d, want 4", stored)
	}
	if got := tr.Spans(last.TraceID); len(got) != 1 {
		t.Fatalf("latest trace evicted too early: %d spans", len(got))
	}
}

func TestAttrCap(t *testing.T) {
	tr := newTestTracer()
	s, _ := tr.StartSpan(context.Background(), "busy")
	for i := 0; i < MaxAttrsPerSpan+5; i++ {
		s.SetAttr(String("k", "v"))
	}
	if n := len(s.Attrs()); n != MaxAttrsPerSpan {
		t.Fatalf("attrs = %d, want cap %d", n, MaxAttrsPerSpan)
	}
	s.End()
}

func TestEndTwiceIsIdempotent(t *testing.T) {
	tr := newTestTracer()
	s, _ := tr.StartSpan(context.Background(), "once")
	s.End()
	end1 := s.EndTime()
	s.EndErr(errors.New("late"))
	if s.Err() != "" || !s.EndTime().Equal(end1) {
		t.Fatal("second End mutated the span")
	}
	_, _, stored, _ := tr.Stats()
	if stored != 1 {
		t.Fatalf("stored = %d, want 1 (no double-record)", stored)
	}
}

func TestStartRemoteContinuesTrace(t *testing.T) {
	tr := newTestTracer()
	up, _ := tr.StartSpan(context.Background(), "client")
	hdr := FormatTraceparent(up.Context())
	sc, ok := ParseTraceparent(hdr)
	if !ok {
		t.Fatalf("ParseTraceparent(%q) failed", hdr)
	}
	srv := tr.StartRemote(sc, "server")
	if srv.Context().TraceID != up.Context().TraceID {
		t.Fatal("remote span did not join the trace")
	}
	if srv.parent != up.Context().SpanID {
		t.Fatal("remote span parent mismatch")
	}
	srv.End()
	up.End()
}

func TestStartRemoteInvalidStartsRoot(t *testing.T) {
	tr := newTestTracer()
	s := tr.StartRemote(SpanContext{}, "orphan")
	if !s.Context().Valid() {
		t.Fatal("orphan should start a fresh root trace")
	}
	s.End()
}

func TestReset(t *testing.T) {
	tr := newTestTracer()
	s, _ := tr.StartSpan(context.Background(), "x")
	s.End()
	tr.StartSpan(context.Background(), "live")
	tr.Reset()
	_, _, stored, live := tr.Stats()
	if stored != 0 || live != 0 {
		t.Fatal("Reset left state behind")
	}
}

func TestConcurrentSpansNoRace(t *testing.T) {
	tr := newTestTracer()
	root, ctx := tr.StartSpan(context.Background(), "root")
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func(i int) {
			defer func() { done <- struct{}{} }()
			for j := 0; j < 50; j++ {
				s, _ := tr.StartSpan(ctx, "worker")
				s.SetAttr(String("i", "x"))
				s.End()
			}
		}(i)
	}
	for i := 0; i < 8; i++ {
		<-done
	}
	root.End()
	if got := tr.Spans(root.Context().TraceID); len(got) < 100 {
		t.Fatalf("spans = %d, want >= 100", len(got))
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	id := func() string {
		tr := New(WithSeed(7))
		s, _ := tr.StartSpan(context.Background(), "x")
		defer s.End()
		return s.Context().TraceID.String()
	}
	if id() != id() {
		t.Fatal("WithSeed should make trace ids reproducible")
	}
}

func TestRenderTreeShape(t *testing.T) {
	tr := newTestTracer()
	root, ctx := tr.StartSpan(context.Background(), "submit")
	c1, cctx := tr.StartSpan(ctx, "bid")
	c2, _ := tr.StartSpan(cctx, "transfer")
	c2.EndErr(errors.New("no funds"))
	c1.End()
	root.End()

	out := RenderTree(tr.Spans(root.Context().TraceID))
	for _, want := range []string{"submit", "bid", "transfer", `ERROR="no funds"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("tree missing %q:\n%s", want, out)
		}
	}
	// transfer nests two levels under submit.
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "transfer") && !strings.HasPrefix(line, "    - ") {
			t.Fatalf("transfer not at depth 2: %q", line)
		}
	}
}

func TestSummaries(t *testing.T) {
	now := time.Unix(0, 0)
	tr := newTestTracer(WithNow(func() time.Time { return now }))

	fast, _ := tr.StartSpan(context.Background(), "fast")
	now = now.Add(10 * time.Millisecond)
	fast.End()

	slow, sctx := tr.StartSpan(context.Background(), "slow")
	child, _ := tr.StartSpan(sctx, "inner")
	now = now.Add(2 * time.Second)
	child.EndErr(errors.New("x"))
	slow.End()

	sums := tr.Summaries()
	if len(sums) != 2 {
		t.Fatalf("summaries = %d, want 2", len(sums))
	}
	// Newest first.
	if sums[0].Root != "slow" || sums[1].Root != "fast" {
		t.Fatalf("summaries = %+v, want roots 'slow' then 'fast'", sums)
	}
	if sums[0].Spans != 2 || sums[0].Errors != 1 {
		t.Fatalf("slow trace spans=%d errors=%d", sums[0].Spans, sums[0].Errors)
	}
	if sums[0].Duration != 2*time.Second || sums[1].Duration != 10*time.Millisecond {
		t.Fatalf("durations = %v and %v, want 2s and 10ms", sums[0].Duration, sums[1].Duration)
	}
}

func TestBuildTreeOrphanBecomesRoot(t *testing.T) {
	tr := newTestTracer()
	// A span whose parent was never collected locally (remote parent).
	var remote SpanContext
	remote.TraceID, remote.SpanID = mustIDs(tr)
	remote.Sampled = true
	s := tr.StartRemote(remote, "server")
	s.End()
	roots := BuildTree(tr.Spans(s.Context().TraceID))
	if len(roots) != 1 || roots[0].Span != s {
		t.Fatalf("orphan should render as a root, got %d roots", len(roots))
	}
}

func mustIDs(t *Tracer) (TraceID, SpanID) { return t.newIDs(true) }

// WithNow injects a clock (tests and simulations).
func WithNow(fn func() time.Time) Option {
	return func(t *Tracer) {
		if fn != nil {
			t.nowFn = fn
		}
	}
}

// Stats reports tracer counters: spans started, spans sampled, completed
// spans currently stored, live sampled spans.
func (t *Tracer) Stats() (started, sampled uint64, stored, live int) {
	t.mu.Lock()
	stored = len(t.ring)
	live = len(t.active)
	t.mu.Unlock()
	return t.started.Load(), t.sampled.Load(), stored, live
}
