package retry

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestBackoffSchedule(t *testing.T) {
	// 50 ms doubling per attempt, capped at 2 s.
	cases := []struct {
		name    string
		attempt int
		want    time.Duration
	}{
		{"defaults attempt 0", 0, 50 * time.Millisecond},
		{"defaults attempt 1", 1, 100 * time.Millisecond},
		{"defaults attempt 2", 2, 200 * time.Millisecond},
		{"last below the cap", 5, 1600 * time.Millisecond},
		{"first at the cap", 6, 2 * time.Second},
		{"defaults capped", 10, 2 * time.Second},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := backoff(tc.attempt); got != tc.want {
				t.Errorf("backoff(%d) = %v, want %v", tc.attempt, got, tc.want)
			}
		})
	}
}

func TestJitterBounds(t *testing.T) {
	// Full jitter: for any rand draw r in [0,1), delay = r * backoff.
	for _, r := range []float64{0, 0.25, 0.5, 0.999999} {
		p := Policy{Rand: func() float64 { return r }}
		got := p.jittered(0)
		want := time.Duration(r * float64(baseDelay))
		if got != want {
			t.Errorf("jittered(0) with r=%v = %v, want %v", r, got, want)
		}
		if got < 0 || got >= baseDelay {
			t.Errorf("jitter %v outside [0, base)", got)
		}
	}
}

func TestDoRetriesUntilSuccess(t *testing.T) {
	var slept []time.Duration
	calls := 0
	p := Policy{
		Name: "test",
		Rand: func() float64 { return 0.5 },
		Sleep: func(_ context.Context, d time.Duration) error {
			slept = append(slept, d)
			return nil
		},
	}
	err := p.Do(context.Background(), func(context.Context) error {
		calls++
		if calls < 3 {
			return errors.New("flaky")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if calls != 3 {
		t.Errorf("calls = %d, want 3", calls)
	}
	// Two sleeps, at 0.5 * (50ms, 100ms).
	want := []time.Duration{25 * time.Millisecond, 50 * time.Millisecond}
	if len(slept) != 2 || slept[0] != want[0] || slept[1] != want[1] {
		t.Errorf("sleeps = %v, want %v", slept, want)
	}
}

func TestDoExhaustsAttempts(t *testing.T) {
	calls := 0
	var slept []time.Duration
	p := Policy{
		Name: "exhaust",
		Sleep: func(_ context.Context, d time.Duration) error {
			slept = append(slept, d)
			return nil
		},
		Rand: func() float64 { return 0.5 },
	}
	boom := errors.New("down")
	err := p.Do(context.Background(), func(context.Context) error {
		calls++
		return boom
	})
	if !errors.Is(err, boom) {
		t.Errorf("err = %v", err)
	}
	// Four attempts, no sleep after the last.
	if calls != 4 {
		t.Errorf("calls = %d, want 4", calls)
	}
	want := []time.Duration{25 * time.Millisecond, 50 * time.Millisecond, 100 * time.Millisecond}
	if len(slept) != len(want) || slept[0] != want[0] || slept[1] != want[1] || slept[2] != want[2] {
		t.Errorf("sleeps = %v, want %v", slept, want)
	}
}

func TestDoStopsOnPermanent(t *testing.T) {
	calls := 0
	p := Policy{Sleep: func(context.Context, time.Duration) error { return nil }}
	err := p.Do(context.Background(), func(context.Context) error {
		calls++
		return Permanent(errors.New("bad request"))
	})
	if calls != 1 {
		t.Errorf("permanent error retried: %d calls", calls)
	}
	if !IsPermanent(err) {
		t.Errorf("permanence lost: %v", err)
	}
	if err.Error() != "bad request" {
		t.Errorf("message mangled: %q", err.Error())
	}
}

func TestDoStopsOnBreakerOpen(t *testing.T) {
	calls := 0
	p := Policy{Sleep: func(context.Context, time.Duration) error { return nil }}
	err := p.Do(context.Background(), func(context.Context) error {
		calls++
		return fmt.Errorf("wrapped: %w", ErrOpen)
	})
	if calls != 1 {
		t.Errorf("open breaker retried: %d calls", calls)
	}
	if !errors.Is(err, ErrOpen) {
		t.Errorf("err = %v", err)
	}
}

func TestDoHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	p := Policy{
		Sleep: func(ctx context.Context, _ time.Duration) error { return ctx.Err() },
	}
	err := p.Do(ctx, func(context.Context) error {
		calls++
		cancel()
		return errors.New("flaky")
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want canceled", err)
	}
	if calls != 1 {
		t.Errorf("calls = %d after cancel", calls)
	}
}

func TestPermanentNil(t *testing.T) {
	if Permanent(nil) != nil {
		t.Error("Permanent(nil) != nil")
	}
	if IsPermanent(errors.New("x")) {
		t.Error("plain error reported permanent")
	}
}
