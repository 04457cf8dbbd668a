// Package retry is the fault-tolerance core of the grid market: a
// context-aware retry policy with exponential backoff and full jitter, plus a
// three-state circuit breaker (breaker.go).
//
// The paper's Grid is explicitly best-effort — hosts join and leave, and the
// Tycoon design paper (Lai et al.) stresses that a market allocator must
// degrade gracefully when auctioneers and banks are unreachable. Every typed
// HTTP client in internal/httpapi routes its calls through a Policy and a
// Breaker from this package.
//
// Determinism: both Policy and Breaker take injectable time and randomness
// (Sleep, Rand, Now), so tests exercise full backoff schedules and breaker
// timelines without a single wall-clock sleep. Production code leaves the
// hooks nil and gets real timers and math/rand jitter.
package retry

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync"
	"time"
)

// The one retry schedule: four attempts with 50 ms base and 2x growth sleep
// at most ~50+100+200 ms of jittered backoff before giving up — fast enough
// for an interactive bid path, patient enough to ride out a daemon restart.
// The HTTP client's timeout bounds each attempt.
const (
	maxAttempts = 4
	baseDelay   = 50 * time.Millisecond
	maxDelay    = 2 * time.Second
	multiplier  = 2.0
)

// Policy retries an operation on the schedule above. The zero value (plus a
// Name) is the production policy; Sleep and Rand are for tests.
type Policy struct {
	// Name labels this policy's metrics (retries_total{name=...}).
	Name string
	// Sleep waits between attempts. Nil means a real timer honoring ctx.
	// Tests inject a recording stub so schedules are checked instantly.
	Sleep func(ctx context.Context, d time.Duration) error
	// Rand supplies jitter draws in [0, 1). Nil means a locked math/rand
	// source. Tests inject a deterministic sequence.
	Rand func() float64
}

// permanentError marks an error that must not be retried.
type permanentError struct{ err error }

func (p *permanentError) Error() string { return p.err.Error() }
func (p *permanentError) Unwrap() error { return p.err }

// Permanent wraps err so Do refuses to retry it — used for application-level
// rejections (4xx responses, validation failures) where re-sending the same
// request can only fail the same way.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err: err}
}

// IsPermanent reports whether err carries the Permanent marker.
func IsPermanent(err error) bool {
	var p *permanentError
	return errors.As(err, &p)
}

var (
	jitterMu  sync.Mutex
	jitterSrc = rand.New(rand.NewSource(1)) // deterministic but shared; jitter needs no secrecy
)

func defaultRand() float64 {
	jitterMu.Lock()
	defer jitterMu.Unlock()
	return jitterSrc.Float64()
}

func defaultSleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// retryable reports whether err is worth another attempt: everything except
// Permanent-wrapped errors, breaker ErrOpen and context cancellation/expiry.
func retryable(err error) bool {
	return !IsPermanent(err) &&
		!errors.Is(err, ErrOpen) &&
		!errors.Is(err, context.Canceled) &&
		!errors.Is(err, context.DeadlineExceeded)
}

// backoff returns the pre-jitter delay before attempt+2 (attempt counts
// completed tries, zero-based): min(maxDelay, baseDelay * multiplier^attempt).
func backoff(attempt int) time.Duration {
	base := float64(baseDelay) * math.Pow(multiplier, float64(attempt))
	if cap := float64(maxDelay); base > cap {
		base = cap
	}
	return time.Duration(base)
}

// jittered applies full jitter: a uniform draw in [0, backoff(attempt)).
// Full jitter (rather than equal or decorrelated) maximally decorrelates a
// thundering herd of brokers retrying against one recovering auctioneer.
func (p Policy) jittered(attempt int) time.Duration {
	r := p.Rand
	if r == nil {
		r = defaultRand
	}
	return time.Duration(r() * float64(backoff(attempt)))
}

// Do runs op until it succeeds, exhausts maxAttempts, hits a non-retryable
// error, or ctx is cancelled. The returned error is the last attempt's.
func (p Policy) Do(ctx context.Context, op func(ctx context.Context) error) error {
	sleep := p.Sleep
	if sleep == nil {
		sleep = defaultSleep
	}
	var err error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if attempt > 0 {
			mRetries.With(p.Name).Inc()
		}
		err = op(ctx)
		if err == nil {
			return nil
		}
		if !retryable(err) || attempt == maxAttempts-1 {
			break
		}
		if serr := sleep(ctx, p.jittered(attempt)); serr != nil {
			// Cancelled mid-backoff: surface the cancellation, not the
			// (stale) attempt error.
			return serr
		}
	}
	mGiveUps.With(p.Name).Inc()
	return err
}
