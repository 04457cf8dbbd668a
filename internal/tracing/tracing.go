// Package tracing is the repository's dependency-free distributed-tracing
// core: spans with parent links and attributes, recorded into a bounded
// in-memory ring with sampling, and propagated across daemon boundaries via
// W3C traceparent headers (traceparent.go).
//
// Spans answer "which layer of this request was slow" and, through metric
// exemplars, tie a slow histogram bucket to one trace. They are sampled, so
// they hold no record anything else depends on: a job's audit trail — "why
// did *this* job get *that* price" — is the job's own data (agent.Job,
// arc.GridJob), served whatever the sampling ratio.
//
// Two propagation styles coexist:
//
//   - context.Context carries the active span across HTTP boundaries
//     (ContextWithSpan / SpanFromContext); the httpapi middleware and the
//     retry-aware Caller translate it to and from traceparent headers.
//   - A tracer-level scope stack (PushScope / Current) carries the active
//     span through the single-threaded simulation core, where arc, agent,
//     auction and bank call each other synchronously without contexts. The
//     market engine is serialized behind one mutex (httpapi.JobService), so
//     a process-wide stack is race-free there; concurrent HTTP daemons use
//     contexts and never touch the scope stack.
//
// Hot paths stay cheap: Current is one atomic load, an unsampled span's
// methods are nil-check no-ops, and per-span attribute counts are capped so a
// runaway loop cannot grow memory without bound.
package tracing

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID identifies one end-to-end trace (16 bytes, hex on the wire).
type TraceID [16]byte

// SpanID identifies one span within a trace (8 bytes, hex on the wire).
type SpanID [8]byte

// String renders the id as lowercase hex.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// IsZero reports whether the id is the invalid all-zero id.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// String renders the id as lowercase hex.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// IsZero reports whether the id is the invalid all-zero id.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// ParseTraceID decodes a 32-hex-digit trace id.
func ParseTraceID(s string) (TraceID, bool) {
	var t TraceID
	if len(s) != 2*len(t) {
		return TraceID{}, false
	}
	if _, err := hex.Decode(t[:], []byte(s)); err != nil || t.IsZero() {
		return TraceID{}, false
	}
	return t, true
}

// SpanContext is the propagated identity of a span: what travels in a
// traceparent header. Sampled spans record; unsampled spans only carry ids so
// a downstream daemon still joins the right trace.
type SpanContext struct {
	TraceID TraceID
	SpanID  SpanID
	Sampled bool
}

// Valid reports whether both ids are non-zero.
func (sc SpanContext) Valid() bool { return !sc.TraceID.IsZero() && !sc.SpanID.IsZero() }

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// String builds a string attribute.
func String(k, v string) Attr { return Attr{Key: k, Value: v} }

// MaxAttrsPerSpan caps a span's attributes.
const MaxAttrsPerSpan = 64

// Span is one timed operation. All methods are safe on a nil receiver (the
// no-trace case) and safe for concurrent use.
type Span struct {
	tracer  *Tracer
	traceID TraceID
	id      SpanID
	parent  SpanID
	name    string
	start   time.Time
	sampled bool

	mu     sync.Mutex
	end    time.Time
	attrs  []Attr
	errMsg string
	ended  bool
}

// Context returns the span's propagated identity (zero when s is nil).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: s.traceID, SpanID: s.id, Sampled: s.sampled}
}

// Parent returns the parent span id (zero for roots and nil spans).
func (s *Span) Parent() SpanID {
	if s == nil {
		return SpanID{}
	}
	return s.parent
}

// Name returns the span's operation name.
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// StartTime returns when the span began.
func (s *Span) StartTime() time.Time {
	if s == nil {
		return time.Time{}
	}
	return s.start
}

// EndTime returns when the span ended (zero while live).
func (s *Span) EndTime() time.Time {
	if s == nil {
		return time.Time{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.end
}

// Duration returns end-start, or zero while the span is live.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.end.IsZero() {
		return 0
	}
	return s.end.Sub(s.start)
}

// Err returns the error message recorded by EndErr ("" when none).
func (s *Span) Err() string {
	if s == nil {
		return ""
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.errMsg
}

// Recording reports whether the span stores data (false for nil and
// unsampled spans).
func (s *Span) Recording() bool { return s != nil && s.sampled }

// SetAttr appends attributes, up to MaxAttrsPerSpan.
func (s *Span) SetAttr(attrs ...Attr) {
	if !s.Recording() {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, a := range attrs {
		if len(s.attrs) >= MaxAttrsPerSpan {
			return
		}
		s.attrs = append(s.attrs, a)
	}
}

// Attrs returns a copy of the span's attributes.
func (s *Span) Attrs() []Attr {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Attr(nil), s.attrs...)
}

// End closes the span and moves it into the tracer's completed ring.
// Ending twice is a no-op.
func (s *Span) End() { s.EndErr(nil) }

// EndErr closes the span, recording err's message when non-nil.
func (s *Span) EndErr(err error) {
	if s == nil || !s.sampled {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.end = s.tracer.now()
	if err != nil {
		s.errMsg = err.Error()
	}
	s.mu.Unlock()
	s.tracer.record(s)
}

// Option configures a Tracer.
type Option func(*Tracer)

// WithCapacity bounds the completed-span ring (default DefaultCapacity).
func WithCapacity(n int) Option {
	return func(t *Tracer) {
		if n > 0 {
			t.capacity = n
		}
	}
}

// WithNow injects a clock (tests and simulations).
func WithNow(fn func() time.Time) Option {
	return func(t *Tracer) {
		if fn != nil {
			t.nowFn = fn
		}
	}
}

// WithSeed makes id generation and sampling draws deterministic.
func WithSeed(seed int64) Option {
	return func(t *Tracer) { t.rng = rand.New(rand.NewSource(seed)) }
}

// DefaultCapacity is the completed-span ring size of a zero-configured
// tracer: enough for several thousand request spans while keeping the
// worst-case footprint a few megabytes.
const DefaultCapacity = 4096

// Tracer creates spans and stores completed ones in a bounded ring. Safe for
// concurrent use.
type Tracer struct {
	mu       sync.Mutex
	rng      *rand.Rand
	capacity int
	ring     []*Span // completed spans, oldest overwritten first
	next     int     // ring write cursor
	active   map[SpanID]*Span
	scope    []*Span
	nowFn    func() time.Time

	top     atomic.Pointer[Span] // scope-stack top, read lock-free by Current
	ratio   atomic.Uint64        // sampling ratio as float64 bits
	started atomic.Uint64
	sampled atomic.Uint64
}

// New builds a tracer. Sampling starts at ratio 1 (record everything).
func New(opts ...Option) *Tracer {
	t := &Tracer{
		capacity: DefaultCapacity,
		nowFn:    time.Now,
		active:   make(map[SpanID]*Span),
	}
	for _, o := range opts {
		o(t)
	}
	if t.rng == nil {
		var seed [8]byte
		if _, err := crand.Read(seed[:]); err != nil {
			binary.LittleEndian.PutUint64(seed[:], uint64(time.Now().UnixNano()))
		}
		t.rng = rand.New(rand.NewSource(int64(binary.LittleEndian.Uint64(seed[:]))))
	}
	t.ring = make([]*Span, 0, min(t.capacity, 64))
	t.SetSampleRatio(1)
	return t
}

var defaultTracer = New()

// Default returns the process-wide tracer the instrumented packages and the
// httpapi middleware share.
func Default() *Tracer { return defaultTracer }

// SetSampleRatio sets the fraction of new root traces that record, in [0, 1].
// Child spans always inherit their parent's decision so a trace is recorded
// in full or not at all.
func (t *Tracer) SetSampleRatio(r float64) {
	if r < 0 {
		r = 0
	}
	if r > 1 {
		r = 1
	}
	t.ratio.Store(floatBits(r))
}

// SampleRatio returns the current root-sampling ratio.
func (t *Tracer) SampleRatio() float64 { return math.Float64frombits(t.ratio.Load()) }

func floatBits(f float64) uint64 { return math.Float64bits(f) }

func (t *Tracer) now() time.Time { return t.nowFn() }

func (t *Tracer) newIDs(needTrace bool) (TraceID, SpanID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var tid TraceID
	if needTrace {
		for tid.IsZero() {
			t.rng.Read(tid[:])
		}
	}
	var sid SpanID
	for sid.IsZero() {
		t.rng.Read(sid[:])
	}
	return tid, sid
}

func (t *Tracer) sampleRoot() bool {
	r := t.SampleRatio()
	if r >= 1 {
		return true
	}
	if r <= 0 {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.rng.Float64() < r
}

// newSpan is the single span constructor: with a parent it joins the
// parent's trace and inherits its sampling decision; without one it starts a
// new trace and rolls the sampler.
func (t *Tracer) newSpan(parent SpanContext, hasParent bool, name string, attrs []Attr) *Span {
	t.started.Add(1)
	var traceID TraceID
	var parentID SpanID
	var sampledFlag bool
	if hasParent && parent.Valid() {
		traceID = parent.TraceID
		parentID = parent.SpanID
		sampledFlag = parent.Sampled
		_, sid := t.newIDs(false)
		s := &Span{tracer: t, traceID: traceID, id: sid, parent: parentID,
			name: name, start: t.now(), sampled: sampledFlag}
		t.finishNew(s, attrs)
		return s
	}
	sampledFlag = t.sampleRoot()
	tid, sid := t.newIDs(true)
	s := &Span{tracer: t, traceID: tid, id: sid, name: name, start: t.now(), sampled: sampledFlag}
	t.finishNew(s, attrs)
	return s
}

func (t *Tracer) finishNew(s *Span, attrs []Attr) {
	if !s.sampled {
		return
	}
	t.sampled.Add(1)
	if len(attrs) > 0 {
		s.SetAttr(attrs...)
	}
	t.mu.Lock()
	if len(t.active) < 4*t.capacity { // backstop against never-ended spans
		t.active[s.id] = s
	}
	t.mu.Unlock()
}

// StartSpan starts a span named name. The parent is resolved in order: the
// span in ctx, then the tracer's current scope, then none (a new root
// trace). The returned context carries the new span.
func (t *Tracer) StartSpan(ctx context.Context, name string, attrs ...Attr) (*Span, context.Context) {
	parent := SpanFromContext(ctx)
	if parent == nil {
		parent = t.Current()
	}
	var s *Span
	if parent != nil {
		s = t.newSpan(parent.Context(), true, name, attrs)
	} else {
		s = t.newSpan(SpanContext{}, false, name, attrs)
	}
	return s, ContextWithSpan(ctx, s)
}

// StartRemote starts a span continuing a trace received from another
// process (a parsed traceparent header). An invalid sc starts a new root.
func (t *Tracer) StartRemote(sc SpanContext, name string, attrs ...Attr) *Span {
	return t.newSpan(sc, sc.Valid(), name, attrs)
}

// record moves a completed sampled span into the bounded ring.
func (t *Tracer) record(s *Span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.active, s.id)
	if len(t.ring) < t.capacity {
		t.ring = append(t.ring, s)
		return
	}
	t.ring[t.next%t.capacity] = s
	t.next = (t.next + 1) % t.capacity
}

// Spans returns every stored span of the given trace — completed spans plus
// still-live ones — ordered by start time then id, so callers can rebuild
// the tree deterministically.
func (t *Tracer) Spans(id TraceID) []*Span {
	t.mu.Lock()
	out := make([]*Span, 0, 8)
	for _, s := range t.ring {
		if s.traceID == id {
			out = append(out, s)
		}
	}
	for _, s := range t.active {
		if s.traceID == id {
			out = append(out, s)
		}
	}
	t.mu.Unlock()
	sortSpans(out)
	return out
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

// Reset drops all stored and live spans and zeroes the scope stack — test
// isolation for packages sharing the Default tracer.
func (t *Tracer) Reset() {
	t.mu.Lock()
	t.ring = t.ring[:0]
	t.next = 0
	t.active = make(map[SpanID]*Span)
	t.scope = nil
	t.top.Store(nil)
	t.mu.Unlock()
}

// PushScope makes s the tracer's current scope span until the returned
// release function runs. Scopes are how the single-threaded market core
// (arc → agent → auction → bank, all behind one engine mutex) and
// single-goroutine CLIs propagate the active span without threading
// contexts; concurrent servers must use contexts instead. Pushing nil is
// a recorded no-op so callers need no trace-enabled branches.
func (t *Tracer) PushScope(s *Span) (release func()) {
	if s == nil {
		return func() {}
	}
	t.mu.Lock()
	t.scope = append(t.scope, s)
	t.top.Store(s)
	t.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			t.mu.Lock()
			if n := len(t.scope); n > 0 && t.scope[n-1] == s {
				t.scope = t.scope[:n-1]
				if n-1 > 0 {
					t.top.Store(t.scope[n-2])
				} else {
					t.top.Store(nil)
				}
			}
			t.mu.Unlock()
		})
	}
}

// Current returns the innermost scope span, or nil. One atomic load — cheap
// enough for the auction-clear hot path to call unconditionally.
func (t *Tracer) Current() *Span { return t.top.Load() }

type ctxKey struct{}

// ContextWithSpan returns a context carrying s.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, s)
}

// SpanFromContext returns the span carried by ctx, or nil.
func SpanFromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
