package sim

import (
	"testing"
	"time"
)

func TestEngineStartsAtEpoch(t *testing.T) {
	e := NewEngine()
	if !e.Now().Equal(Epoch) {
		t.Errorf("Now = %v, want Epoch", e.Now())
	}
	if e.Elapsed() != 0 {
		t.Errorf("Elapsed = %v", e.Elapsed())
	}
}

func TestEventOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	if _, err := e.After(3*time.Second, func() { order = append(order, 3) }); err != nil {
		t.Fatal(err)
	}
	if _, err := e.After(1*time.Second, func() { order = append(order, 1) }); err != nil {
		t.Fatal(err)
	}
	if _, err := e.After(2*time.Second, func() { order = append(order, 2) }); err != nil {
		t.Fatal(err)
	}
	e.RunFor(10 * time.Second)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
	if e.Elapsed() != 10*time.Second {
		t.Errorf("clock = %v, want 10s", e.Elapsed())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		if _, err := e.After(time.Second, func() { order = append(order, i) }); err != nil {
			t.Fatal(err)
		}
	}
	e.RunFor(2 * time.Second)
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events out of FIFO order: %v", order)
		}
	}
}

func TestSchedulePastRejected(t *testing.T) {
	e := NewEngine()
	e.RunFor(time.Minute)
	if _, err := e.At(Epoch, func() {}); err != ErrPastEvent {
		t.Errorf("err = %v, want ErrPastEvent", err)
	}
	if _, err := e.After(-time.Second, func() {}); err != ErrPastEvent {
		t.Errorf("err = %v, want ErrPastEvent", err)
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	h, err := e.After(time.Second, func() { fired = true })
	if err != nil {
		t.Fatal(err)
	}
	h.Cancel()
	h.Cancel() // double cancel is a no-op
	e.RunFor(2 * time.Second)
	if fired {
		t.Error("cancelled event fired")
	}
	Handle{}.Cancel() // zero handle is safe
}

func TestClockDuringEvent(t *testing.T) {
	e := NewEngine()
	var at time.Duration
	if _, err := e.After(42*time.Second, func() { at = e.Elapsed() }); err != nil {
		t.Fatal(err)
	}
	e.RunFor(time.Minute)
	if at != 42*time.Second {
		t.Errorf("event saw clock %v, want 42s", at)
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	e := NewEngine()
	var hits []time.Duration
	if _, err := e.After(time.Second, func() {
		hits = append(hits, e.Elapsed())
		if _, err := e.After(time.Second, func() { hits = append(hits, e.Elapsed()) }); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	e.RunFor(5 * time.Second)
	if len(hits) != 2 || hits[0] != time.Second || hits[1] != 2*time.Second {
		t.Errorf("hits = %v", hits)
	}
}

func TestRunUntilStopsBeforeLaterEvents(t *testing.T) {
	e := NewEngine()
	fired := false
	if _, err := e.After(time.Hour, func() { fired = true }); err != nil {
		t.Fatal(err)
	}
	e.RunFor(time.Minute)
	if fired {
		t.Error("event beyond horizon fired")
	}
	e.RunFor(time.Hour)
	if !fired {
		t.Error("event inside horizon did not fire")
	}
}

func TestTicker(t *testing.T) {
	e := NewEngine()
	var ticks []time.Duration
	tk, err := e.Every(10*time.Second, func() { ticks = append(ticks, e.Elapsed()) })
	if err != nil {
		t.Fatal(err)
	}
	e.RunFor(35 * time.Second)
	if len(ticks) != 3 {
		t.Fatalf("ticks = %v", ticks)
	}
	for i, want := range []time.Duration{10 * time.Second, 20 * time.Second, 30 * time.Second} {
		if ticks[i] != want {
			t.Errorf("tick %d at %v, want %v", i, ticks[i], want)
		}
	}
	tk.Stop()
	e.RunFor(time.Minute)
	if len(ticks) != 3 {
		t.Error("ticker fired after Stop")
	}
}

func TestTickerStopFromWithinCallback(t *testing.T) {
	e := NewEngine()
	n := 0
	var tk *Ticker
	tk, err := e.Every(time.Second, func() {
		n++
		if n == 2 {
			tk.Stop()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	e.RunFor(time.Minute)
	if n != 2 {
		t.Errorf("ticks = %d, want 2", n)
	}
}

func TestEveryValidation(t *testing.T) {
	e := NewEngine()
	if _, err := e.Every(0, func() {}); err == nil {
		t.Error("want error for zero interval")
	}
}

func TestStepsCountsExecutedEvents(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 5; i++ {
		if _, err := e.After(time.Duration(i)*time.Second, func() {}); err != nil {
			t.Fatal(err)
		}
	}
	e.RunFor(time.Minute)
	if e.Steps() != 5 {
		t.Errorf("steps = %d, want 5", e.Steps())
	}
}

func TestWallClock(t *testing.T) {
	var c Clock = WallClock{}
	before := time.Now()
	got := c.Now()
	after := time.Now()
	if got.Before(before) || got.After(after) {
		t.Errorf("WallClock.Now outside bracket")
	}
}

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event is a no-op.
func (h Handle) Cancel() {
	if h.ev != nil && h.ev.gen == h.gen {
		h.ev.off = true
	}
}

// Stop cancels future ticks.
func (t *Ticker) Stop() {
	t.stopped = true
	t.handle.Cancel()
}

func TestNewEngineAt(t *testing.T) {
	start := time.Date(2006, 6, 1, 12, 0, 0, 0, time.UTC)
	e := NewEngineAt(start)
	if !e.Now().Equal(start) {
		t.Fatalf("Now = %v, want %v", e.Now(), start)
	}
	var fired time.Time
	if _, err := e.After(90*time.Second, func() { fired = e.Now() }); err != nil {
		t.Fatal(err)
	}
	e.RunFor(time.Hour)
	if want := start.Add(90 * time.Second); !fired.Equal(want) {
		t.Errorf("event fired at %v, want %v", fired, want)
	}
	if want := start.Add(time.Hour); !e.Now().Equal(want) {
		t.Errorf("Now after RunFor(1h) = %v, want %v", e.Now(), want)
	}
}
