package sim

import (
	"cmp"
	"math/rand"
	"slices"
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
	if err := e.After(3*time.Second, func() { order = append(order, 3) }); err != nil {
		t.Fatal(err)
	}
	if err := e.After(1*time.Second, func() { order = append(order, 1) }); err != nil {
		t.Fatal(err)
	}
	if err := e.After(2*time.Second, func() { order = append(order, 2) }); err != nil {
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
		if err := e.After(time.Second, func() { order = append(order, i) }); err != nil {
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

// TestHeapOrder: many events at colliding random instants, some scheduled
// from inside others, fire in (time, scheduling order) order.
func TestHeapOrder(t *testing.T) {
	e := NewEngine()
	r := rand.New(rand.NewSource(1))
	type key struct {
		at  time.Duration
		seq int
	}
	var fired []key
	seq := 0
	var schedule func(d time.Duration)
	schedule = func(d time.Duration) {
		k := key{e.Elapsed() + d, seq}
		seq++
		if err := e.After(d, func() {
			fired = append(fired, k)
			if k.seq%3 == 0 {
				schedule(time.Duration(r.Intn(20)) * time.Second)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 500; i++ {
		schedule(time.Duration(r.Intn(50)) * time.Second)
	}
	e.RunFor(time.Hour)
	if len(fired) != seq {
		t.Fatalf("fired %d of %d events", len(fired), seq)
	}
	if !slices.IsSortedFunc(fired, func(a, b key) int {
		if a.at != b.at {
			return cmp.Compare(a.at, b.at)
		}
		return cmp.Compare(a.seq, b.seq)
	}) {
		t.Error("events fired out of (time, seq) order")
	}
}

func TestSchedulePastRejected(t *testing.T) {
	e := NewEngine()
	e.RunFor(time.Minute)
	if err := e.At(Epoch, func() {}); err != ErrPastEvent {
		t.Errorf("err = %v, want ErrPastEvent", err)
	}
	if err := e.After(-time.Second, func() {}); err != ErrPastEvent {
		t.Errorf("err = %v, want ErrPastEvent", err)
	}
}

func TestClockDuringEvent(t *testing.T) {
	e := NewEngine()
	var at time.Duration
	if err := e.After(42*time.Second, func() { at = e.Elapsed() }); err != nil {
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
	if err := e.After(time.Second, func() {
		hits = append(hits, e.Elapsed())
		if err := e.After(time.Second, func() { hits = append(hits, e.Elapsed()) }); err != nil {
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
	if err := e.After(time.Hour, func() { fired = true }); err != nil {
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
	err := e.Every(10*time.Second, func() { ticks = append(ticks, e.Elapsed()) })
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
}

func TestEveryValidation(t *testing.T) {
	e := NewEngine()
	if err := e.Every(0, func() {}); err == nil {
		t.Error("want error for zero interval")
	}
}

func TestStepsCountsExecutedEvents(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 5; i++ {
		if err := e.After(time.Duration(i)*time.Second, func() {}); err != nil {
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

func TestNewEngineAt(t *testing.T) {
	start := time.Date(2006, 6, 1, 12, 0, 0, 0, time.UTC)
	e := NewEngineAt(start)
	if !e.Now().Equal(start) {
		t.Fatalf("Now = %v, want %v", e.Now(), start)
	}
	var fired time.Time
	if err := e.After(90*time.Second, func() { fired = e.Now() }); err != nil {
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

// TestEveryAllocatesNothing: once the heap has grown to its working size, a
// periodic tick and a one-shot event allocate nothing — Every re-arms from
// one closure built when it is called, and events live in the heap by value.
func TestEveryAllocatesNothing(t *testing.T) {
	e := NewEngine()
	ticks, steps := 0, 0
	if err := e.Every(time.Second, func() { ticks++ }); err != nil {
		t.Fatal(err)
	}
	step := func() { steps++ }
	run := func() {
		if err := e.After(500*time.Millisecond, step); err != nil {
			t.Fatal(err)
		}
		e.RunFor(time.Second)
	}
	for i := 0; i < 10; i++ {
		run()
	}
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Errorf("one tick and one event allocate %v times, want 0", allocs)
	}
	if ticks != steps || ticks != 111 {
		t.Errorf("ticks = %d, events = %d, want 111 each", ticks, steps)
	}
}
