// Package failpoint holds the named, seeded crash points that durable
// storage code calls at its commit steps (see registry.go). It lives in its
// own leaf package — rather than in fault proper — so that packages
// underneath the grid (internal/durable, and the bank's tests that hold a
// commit mid-step) can import it without pulling in fault's grid dependency
// and closing an import cycle.
package failpoint

import "tycoongrid/internal/rng"

// Points is a seeded fail-point decider: a deterministic stream of
// crash/no-crash decisions, one per armed crash point, consulted at every
// Maybe of that point — so a crash schedule replays from its seed. A world's
// box.Config.Churn kills hosts from the outside; armed points kill a process
// from the inside, mid-step.
//
// Points is not safe for concurrent use; the registry consults each one
// under its lock.
type Points struct {
	src  *rng.Source
	rate float64
}

// NewPoints returns a decider that fires with the given probability per
// Hit call. rate is clamped to [0, 1]; rate 0 never fires.
func NewPoints(seed int64, rate float64) *Points {
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	return &Points{src: rng.New(seed), rate: rate}
}

// Hit reports whether the fail point fires this time. Every call consumes
// one draw from the stream, so the decision sequence depends only on the
// seed and the call count.
func (p *Points) Hit() bool {
	if p.rate <= 0 {
		// Consume a draw anyway so toggling the rate does not shift the
		// decisions of later calls within a replayed schedule.
		_ = p.src.Float64()
		return false
	}
	return p.src.Float64() < p.rate
}
