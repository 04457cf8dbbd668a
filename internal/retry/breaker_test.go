package retry

import (
	"errors"
	"testing"
	"time"
)

// manualClock is an injectable Now for breaker tests: time only moves when a
// test advances it, so cool-down timelines run without sleeping.
type manualClock struct{ t time.Time }

func (c *manualClock) Now() time.Time          { return c.t }
func (c *manualClock) Advance(d time.Duration) { c.t = c.t.Add(d) }

func newTestBreaker(name string, clk *manualClock) *Breaker {
	return NewBreaker(BreakerConfig{Name: name, Now: clk.Now})
}

// fail records n failures.
func fail(b *Breaker, n int) {
	for i := 0; i < n; i++ {
		b.Record(errors.New("down"))
	}
}

func TestBreakerTransitions(t *testing.T) {
	boom := errors.New("down")
	cases := []struct {
		name string
		run  func(b *Breaker, clk *manualClock)
		want State
	}{
		{"starts closed", func(b *Breaker, clk *manualClock) {}, Closed},
		{"stays closed below threshold", func(b *Breaker, clk *manualClock) {
			fail(b, failureThreshold-1)
		}, Closed},
		{"opens at threshold", func(b *Breaker, clk *manualClock) {
			fail(b, failureThreshold)
		}, Open},
		{"success resets failure count", func(b *Breaker, clk *manualClock) {
			fail(b, failureThreshold-1)
			b.Record(nil)
			fail(b, failureThreshold-1)
		}, Closed},
		{"half-open after cool-down", func(b *Breaker, clk *manualClock) {
			fail(b, failureThreshold)
			clk.Advance(openTimeout)
		}, HalfOpen},
		{"still open before cool-down", func(b *Breaker, clk *manualClock) {
			fail(b, failureThreshold)
			clk.Advance(openTimeout - time.Second)
		}, Open},
		{"probe success closes", func(b *Breaker, clk *manualClock) {
			fail(b, failureThreshold)
			clk.Advance(openTimeout)
			if err := b.Allow(); err != nil {
				t.Fatalf("probe rejected: %v", err)
			}
			b.Record(nil)
		}, Closed},
		{"probe failure re-opens", func(b *Breaker, clk *manualClock) {
			fail(b, failureThreshold)
			clk.Advance(openTimeout)
			if err := b.Allow(); err != nil {
				t.Fatalf("probe rejected: %v", err)
			}
			b.Record(boom)
		}, Open},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clk := &manualClock{t: time.Unix(0, 0)}
			b := newTestBreaker(testName("transitions", i), clk)
			tc.run(b, clk)
			if got := b.State(); got != tc.want {
				t.Errorf("state = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestBreakerRejectsWhileOpen(t *testing.T) {
	clk := &manualClock{t: time.Unix(0, 0)}
	b := newTestBreaker("reject-open", clk)
	fail(b, failureThreshold)
	if err := b.Allow(); !errors.Is(err, ErrOpen) {
		t.Errorf("Allow while open = %v, want ErrOpen", err)
	}
}

func TestBreakerHalfOpenProbeLimit(t *testing.T) {
	clk := &manualClock{t: time.Unix(0, 0)}
	b := newTestBreaker("probe-limit", clk)
	fail(b, failureThreshold)
	clk.Advance(openTimeout)
	if err := b.Allow(); err != nil {
		t.Fatalf("first probe rejected: %v", err)
	}
	// The single probe slot is taken; a second concurrent call is rejected.
	if err := b.Allow(); !errors.Is(err, ErrOpen) {
		t.Errorf("second probe = %v, want ErrOpen", err)
	}
	b.Record(nil)
	if err := b.Allow(); err != nil {
		t.Errorf("Allow after recovery = %v", err)
	}
	b.Record(nil)
}

func TestBreakerOpenCoolDownRestartsOnReTrip(t *testing.T) {
	clk := &manualClock{t: time.Unix(0, 0)}
	b := newTestBreaker("re-trip", clk)
	fail(b, failureThreshold)
	clk.Advance(openTimeout)
	if err := b.Allow(); err != nil {
		t.Fatalf("probe rejected: %v", err)
	}
	b.Record(errors.New("still down")) // re-trips: cool-down restarts now
	clk.Advance(openTimeout - time.Second)
	if got := b.State(); got != Open {
		t.Errorf("state 1s before the cool-down ends = %v, want Open", got)
	}
	clk.Advance(time.Second)
	if got := b.State(); got != HalfOpen {
		t.Errorf("state a cool-down after re-trip = %v, want HalfOpen", got)
	}
}

// testName builds unique metric label names so per-test breakers don't share
// gauges in the process-global registry.
func testName(prefix string, i int) string {
	return prefix + "-" + string(rune('a'+i))
}

// State returns the breaker's current position, advancing Open to HalfOpen
// when the cool-down has elapsed.
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.maybeHalfOpenLocked()
	return b.state
}

func TestStateString(t *testing.T) {
	for _, tc := range []struct {
		s    State
		want string
	}{
		{Closed, "closed"},
		{Open, "open"},
		{HalfOpen, "half-open"},
		{State(7), "unknown"},
	} {
		t.Run(tc.want, func(t *testing.T) {
			if got := tc.s.String(); got != tc.want {
				t.Errorf("State(%d).String() = %q", int(tc.s), got)
			}
		})
	}
}
