// Package sim provides the discrete-event simulation engine under the grid
// market experiments: a virtual clock, an event queue, and periodic
// processes. The market services (auctioneers, agents, job managers) are
// written against the Clock interface so the exact same code runs in real
// time behind the HTTP daemons and in virtual time inside the experiment
// harnesses, where 40 hours of grid activity replay in milliseconds.
//
// The engine schedules and never cancels: a scheduled event fires, and a
// periodic process runs for the engine's life. A process that must end does
// so by its own state check (a job past its deadline, a finished task).
package sim

import (
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

// event is a scheduled callback.
type event struct {
	at  time.Time
	seq uint64 // tie-breaker: FIFO among simultaneous events
	fn  func()
}

func (a *event) before(b *event) bool {
	if !a.at.Equal(b.at) {
		return a.at.Before(b.at)
	}
	return a.seq < b.seq
}

// Engine is a single-threaded discrete-event simulator. It is not safe for
// concurrent use; simulations are deterministic by construction. Distinct
// engines share nothing, so independent replications may run concurrently.
type Engine struct {
	now   time.Time
	queue []event // a min-heap ordered by (at, seq), held by value
	seq   uint64
	steps uint64
}

// defaultEventCapacity pre-sizes the heap: a paper-scale world keeps a few
// hundred events in flight (the market ticker plus task completions), so
// starting here avoids the append-doubling walk on every fresh replication.
const defaultEventCapacity = 256

// NewEngine returns an engine whose clock starts at Epoch.
func NewEngine() *Engine {
	return NewEngineAt(Epoch)
}

// NewEngineAt returns an engine starting at the given instant — used by
// daemons that drive a simulation engine along the wall clock.
func NewEngineAt(start time.Time) *Engine {
	return &Engine{now: start, queue: make([]event, 0, defaultEventCapacity)}
}

// Now returns the current virtual time, satisfying Clock.
func (e *Engine) Now() time.Time { return e.now }

// Elapsed returns virtual time since Epoch.
func (e *Engine) Elapsed() time.Duration { return e.now.Sub(Epoch) }

// Steps returns the number of events executed so far.
func (e *Engine) Steps() uint64 { return e.steps }

// ErrPastEvent is returned when scheduling before the current virtual time.
var ErrPastEvent = errors.New("sim: cannot schedule event in the past")

// At schedules fn at absolute virtual time t. Events at the same instant
// run in the order they were scheduled.
func (e *Engine) At(t time.Time, fn func()) error {
	if t.Before(e.now) {
		return ErrPastEvent
	}
	q := append(e.queue, event{at: t, seq: e.seq, fn: fn})
	e.seq++
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if !q[i].before(&q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
	e.queue = q
	return nil
}

// After schedules fn d from now. Negative d is an error.
func (e *Engine) After(d time.Duration, fn func()) error {
	return e.At(e.now.Add(d), fn)
}

// Every schedules fn every interval, starting one interval from now, for the
// engine's life. fn runs with the clock set to each tick; the next tick is
// scheduled once fn returns.
func (e *Engine) Every(interval time.Duration, fn func()) error {
	if interval <= 0 {
		return errors.New("sim: non-positive tick interval")
	}
	var tick func()
	tick = func() {
		fn()
		_ = e.After(interval, tick) // from the current tick, never in the past
	}
	return e.After(interval, tick)
}

// pop removes and returns the earliest event.
func (e *Engine) pop() event {
	q := e.queue
	n := len(q) - 1
	ev := q[0]
	q[0], q[n] = q[n], event{} // the emptied slot drops its callback
	q = q[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && q[c+1].before(&q[c]) {
			c++
		}
		if !q[c].before(&q[i]) {
			break
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
	e.queue = q
	return ev
}

// RunUntil executes events in order until the queue is exhausted or the next
// event is after t; the clock finishes exactly at t.
func (e *Engine) RunUntil(t time.Time) {
	for len(e.queue) > 0 && !e.queue[0].at.After(t) {
		ev := e.pop()
		e.now = ev.at
		e.steps++
		ev.fn()
	}
	if t.After(e.now) {
		e.now = t
	}
}

// RunFor advances the simulation by d of virtual time.
func (e *Engine) RunFor(d time.Duration) {
	e.RunUntil(e.now.Add(d))
}
