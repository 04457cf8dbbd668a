// Package sim provides the discrete-event simulation engine under the grid
// market experiments: a virtual clock, an event queue, and periodic
// processes. The market services (auctioneers, agents, job managers) are
// written against the Clock interface so the exact same code runs in real
// time behind the HTTP daemons and in virtual time inside the experiment
// harnesses, where 40 hours of grid activity replay in milliseconds.
package sim

import (
	"container/heap"
	"errors"
	"time"
)

// Clock supplies the current time. Implementations: *Engine (virtual) and
// WallClock (real).
type Clock interface {
	Now() time.Time
}

// WallClock is the real-time Clock used by the daemons.
type WallClock struct{}

// Now returns the current wall time.
func (WallClock) Now() time.Time { return time.Now() }

// Epoch is the virtual time origin of every simulation.
var Epoch = time.Date(2006, time.June, 19, 0, 0, 0, 0, time.UTC) // HPDC'06 week

// event is a scheduled callback. Events are pooled: after firing (or being
// popped as cancelled) the struct returns to the engine's free list and its
// generation is bumped, so stale Handles can no longer touch it.
type event struct {
	at  time.Time
	seq uint64 // tie-breaker: FIFO among simultaneous events
	fn  func()
	idx int
	gen uint64 // incremented on recycle; Handles bind to a generation
	off bool   // cancelled
}

// eventQueue is a min-heap ordered by (at, seq).
type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if !q[i].at.Equal(q[j].at) {
		return q[i].at.Before(q[j].at)
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].idx = i
	q[j].idx = j
}
func (q *eventQueue) Push(x any) {
	e := x.(*event)
	e.idx = len(*q)
	*q = append(*q, e)
}
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// Engine is a single-threaded discrete-event simulator. It is not safe for
// concurrent use; simulations are deterministic by construction. Distinct
// engines share nothing, so independent replications may run concurrently.
type Engine struct {
	now   time.Time
	queue eventQueue
	seq   uint64
	steps uint64
	free  []*event // recycled events, reused by At/After
}

// defaultEventCapacity pre-sizes the heap and free list: a paper-scale world
// keeps a few hundred events in flight (one ticker per market plus task
// completions), so starting here avoids the append-doubling walk on every
// fresh replication.
const defaultEventCapacity = 256

func newEngine(start time.Time) *Engine {
	e := &Engine{
		now:   start,
		queue: make(eventQueue, 0, defaultEventCapacity),
		free:  make([]*event, 0, defaultEventCapacity),
	}
	// One contiguous slab instead of per-event allocations.
	slab := make([]event, defaultEventCapacity)
	for i := range slab {
		e.free = append(e.free, &slab[i])
	}
	return e
}

// NewEngine returns an engine whose clock starts at Epoch.
func NewEngine() *Engine {
	return newEngine(Epoch)
}

// NewEngineAt returns an engine starting at the given instant — used by
// daemons that drive a simulation engine along the wall clock.
func NewEngineAt(start time.Time) *Engine {
	return newEngine(start)
}

// alloc takes an event from the free list, growing it when empty.
func (e *Engine) alloc() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free = e.free[:n-1]
		return ev
	}
	return &event{}
}

// recycle bumps the event's generation (invalidating outstanding Handles),
// drops the callback so captured state can be collected, and returns the
// struct to the free list.
func (e *Engine) recycle(ev *event) {
	ev.gen++
	ev.fn = nil
	ev.off = false
	e.free = append(e.free, ev)
}

// Now returns the current virtual time, satisfying Clock.
func (e *Engine) Now() time.Time { return e.now }

// Elapsed returns virtual time since Epoch.
func (e *Engine) Elapsed() time.Duration { return e.now.Sub(Epoch) }

// Steps returns the number of events executed so far.
func (e *Engine) Steps() uint64 { return e.steps }

// Handle identifies a scheduled event so it can be cancelled. The handle
// remembers the event's generation, so one that outlives its event (which
// may have been recycled for a new schedule) cancels nothing. Only tests
// cancel events (Handle.Cancel is in sim_test.go).
type Handle struct {
	ev  *event
	gen uint64
}

// ErrPastEvent is returned when scheduling before the current virtual time.
var ErrPastEvent = errors.New("sim: cannot schedule event in the past")

// At schedules fn at absolute virtual time t.
func (e *Engine) At(t time.Time, fn func()) (Handle, error) {
	if t.Before(e.now) {
		return Handle{}, ErrPastEvent
	}
	ev := e.alloc()
	ev.at, ev.seq, ev.fn = t, e.seq, fn
	e.seq++
	heap.Push(&e.queue, ev)
	return Handle{ev: ev, gen: ev.gen}, nil
}

// After schedules fn d from now. Negative d is an error.
func (e *Engine) After(d time.Duration, fn func()) (Handle, error) {
	return e.At(e.now.Add(d), fn)
}

// Every schedules fn every interval, starting one interval from now, until
// the returned Ticker is stopped. fn runs with the clock set to each tick.
func (e *Engine) Every(interval time.Duration, fn func()) (*Ticker, error) {
	if interval <= 0 {
		return nil, errors.New("sim: non-positive tick interval")
	}
	t := &Ticker{engine: e, interval: interval, fn: fn}
	if err := t.arm(); err != nil {
		return nil, err
	}
	return t, nil
}

// Ticker is a repeating event created by Every.
type Ticker struct {
	engine   *Engine
	interval time.Duration
	fn       func()
	handle   Handle
	stopped  bool
}

func (t *Ticker) arm() error {
	h, err := t.engine.After(t.interval, func() {
		if t.stopped {
			return
		}
		t.fn()
		if !t.stopped {
			_ = t.arm() // After from current tick cannot be in the past
		}
	})
	if err != nil {
		return err
	}
	t.handle = h
	return nil
}

// Step executes the next event, advancing the clock. It reports false when
// the queue is empty.
func (e *Engine) Step() bool {
	for e.queue.Len() > 0 {
		ev := heap.Pop(&e.queue).(*event)
		if ev.off {
			e.recycle(ev)
			continue
		}
		e.now = ev.at
		e.steps++
		fn := ev.fn
		// Recycle before running: the callback's own rescheduling can then
		// reuse the slot, and the generation bump shields stale Handles.
		e.recycle(ev)
		fn()
		return true
	}
	return false
}

// RunUntil executes events until the queue is exhausted or the next event is
// after t; the clock finishes exactly at t.
func (e *Engine) RunUntil(t time.Time) {
	for e.queue.Len() > 0 {
		// Peek.
		next := e.queue[0]
		if next.off {
			e.recycle(heap.Pop(&e.queue).(*event))
			continue
		}
		if next.at.After(t) {
			break
		}
		e.Step()
	}
	if t.After(e.now) {
		e.now = t
	}
}

// RunFor advances the simulation by d of virtual time.
func (e *Engine) RunFor(d time.Duration) {
	e.RunUntil(e.now.Add(d))
}
