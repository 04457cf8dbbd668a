// Package pricefeed holds the rules of a live spot-price history, so the
// prediction models (internal/predict) and scheduling strategies
// (internal/strategy) see the history the market actually produced rather
// than an offline trace. A host keeps at most one history, a tsdb.Ring: its
// auction market hangs it for the first reader (auction.Market.History),
// recording through Observer, and raises it to the largest window any reader
// declares — an agent's forecast window, an experiment's run, auctioneerd's
// week. The host's streaming forecast model hangs beside it; the market's
// observer list is the only fan-out.
//
// Check is a validation boundary in the spirit of predict.FitAR: a single
// NaN, negative price, out-of-order tick, or duplicate timestamp would
// silently poison every downstream autocorrelation and covariance, so all
// are rejected with typed errors, by the ring's observer and the models
// alike.
package pricefeed

import (
	"errors"
	"fmt"
	"math"
	"time"

	"tycoongrid/internal/tsdb"
)

// Errors returned by Check.
var (
	ErrNonFinite  = errors.New("pricefeed: non-finite price")
	ErrNegative   = errors.New("pricefeed: negative price")
	ErrOutOfOrder = errors.New("pricefeed: observation older than last")
	ErrDuplicate  = errors.New("pricefeed: duplicate observation timestamp")
	ErrTimeRange  = errors.New("pricefeed: timestamp outside the representable range")
)

// A ring stores Unix nanoseconds, which cover the years 1678–2262: instants
// whose time.Time.Unix() seconds lie within these bounds (math.MinInt64/1e9
// and math.MaxInt64/1e9, rounded inward) convert exactly.
const (
	minUnixSec = -9223372036
	maxUnixSec = 9223372035
)

// Check applies a spot price's rules to one sample: the price finite and not
// negative, the instant at within the years 1678–2262 and, when a sample is
// held (held), strictly after the newest one's instant last.
func Check(price float64, at, last time.Time, held bool) error {
	switch sec := at.Unix(); {
	case math.IsNaN(price) || math.IsInf(price, 0):
		return fmt.Errorf("%w: %v", ErrNonFinite, price)
	case price < 0:
		return fmt.Errorf("%w: %v", ErrNegative, price)
	case sec < minUnixSec || sec > maxUnixSec:
		return fmt.Errorf("%w: %v", ErrTimeRange, at)
	case held && at.Before(last):
		return fmt.Errorf("%w: %v < %v", ErrOutOfOrder, at, last)
	case held && at.Equal(last):
		return fmt.Errorf("%w: %v", ErrDuplicate, at)
	}
	return nil
}

// DefaultCapacity is an agent's forecast window when none is configured: two
// hours of the paper's 10-second reallocation ticks.
const DefaultCapacity = 720

// Observer returns the callback, with auction.Market.Observe's signature,
// that hangs r on a host's market as its price history: every clear is
// recorded into r and counted in pricefeed_samples_recorded_total. A sample
// Check or the ring refuses (the market never produces one; a bug or clock
// glitch might) is counted in r.Lost and pricefeed_samples_rejected_total,
// not propagated: the history is advisory and must not disturb the market.
func Observer(r *tsdb.Ring) func(price float64, at time.Time) {
	return func(price float64, at time.Time) {
		if Check(price, at, time.Time{}, false) != nil {
			r.Drop()
		} else if r.AppendNanos(at.UnixNano(), price) { // refuses what is out of order
			mSamplesRecorded.Inc()
			return
		}
		mSamplesRejected.Inc()
	}
}

// MeanHistory returns the tail-aligned mean price series across rings:
// element i averages the rings' i-th newest common sample, with the result
// oldest first. max > 0 keeps only the newest max samples of each ring. Empty
// rings are skipped; the series length is the shortest participating
// history. This is the partition-level price signal a meta-scheduler feeds
// its selection strategy.
func MeanHistory(rings []*tsdb.Ring, max int) []float64 {
	series := make([][]tsdb.Point, 0, len(rings))
	minLen := -1
	for _, r := range rings {
		pts := r.Since(math.MinInt64)
		if max > 0 && len(pts) > max {
			pts = pts[len(pts)-max:]
		}
		if len(pts) == 0 {
			continue
		}
		series = append(series, pts)
		if minLen < 0 || len(pts) < minLen {
			minLen = len(pts)
		}
	}
	if len(series) == 0 {
		return nil
	}
	out := make([]float64, minLen)
	for _, pts := range series {
		tail := pts[len(pts)-minLen:]
		for i, p := range tail {
			out[i] += p.V
		}
	}
	for i := range out {
		out[i] /= float64(len(series))
	}
	return out
}

// Hub is the name bench/replay.go times a feed's observe path under, and
// nothing else builds one: a host's ring hangs on its market by
// auction.Market.History. It goes with ROADMAP item 1's bench change.
type Hub struct{ capacity int }

// NewHub returns a Hub whose rings hold capacity samples each
// (<= 0 means DefaultCapacity).
func NewHub(capacity int) *Hub {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Hub{capacity: capacity}
}

// Observer returns the Observer of a new ring; hostID names nothing.
func (h *Hub) Observer(hostID string) func(price float64, at time.Time) {
	return Observer(tsdb.NewRing(h.capacity))
}
