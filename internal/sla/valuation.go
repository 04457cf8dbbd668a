// Piecewise-linear SLA valuations: the buyer-side value model the VCG
// mechanism clears against (see internal/mechanism). A valuation maps CPU
// capacity held on a host to a value *rate* in credits/second, exactly the
// unit of the spot market's spend rates, so mechanism payments and valuation
// levels are directly comparable.
//
// Valuations are restricted to concave piecewise-linear curves (non-increasing
// marginal value per MHz). Concavity is what makes the welfare-maximizing
// allocation solvable by sorted greedy fill — the LP optimum without an
// external solver — and is the economically standard diminishing-returns
// shape for bag-of-tasks applications: the first CPU finishes the critical
// chunk, the tenth trims the tail.
package sla

import (
	"fmt"
	"math"

	"tycoongrid/internal/rng"
)

// ValuationSegment is one piece of a concave piecewise-linear valuation:
// WidthMHz of capacity valued at Marginal credits/second per MHz.
type ValuationSegment struct {
	WidthMHz float64
	Marginal float64
}

// Valuation is a concave piecewise-linear value curve. The zero value is the
// zero valuation (worth nothing at any capacity).
type Valuation struct {
	Segments []ValuationSegment
}

// Validate checks the concave-PWL contract: every width positive and finite,
// every marginal non-negative and finite, marginals non-increasing.
func (v Valuation) Validate() error {
	prev := math.Inf(1)
	for i, s := range v.Segments {
		if !(s.WidthMHz > 0) || math.IsInf(s.WidthMHz, 0) {
			return fmt.Errorf("%w: segment %d width %v", ErrBadTerms, i, s.WidthMHz)
		}
		if s.Marginal < 0 || math.IsNaN(s.Marginal) || math.IsInf(s.Marginal, 0) {
			return fmt.Errorf("%w: segment %d marginal %v", ErrBadTerms, i, s.Marginal)
		}
		if s.Marginal > prev {
			return fmt.Errorf("%w: segment %d marginal %v rises above %v (valuation must be concave)",
				ErrBadTerms, i, s.Marginal, prev)
		}
		prev = s.Marginal
	}
	return nil
}

// ValueRate returns the value, in credits/second, of holding qMHz of
// capacity: the integral of the marginal curve from 0 to qMHz. Negative q is
// worth zero; q beyond the last segment adds nothing.
func (v Valuation) ValueRate(qMHz float64) float64 {
	if !(qMHz > 0) {
		return 0
	}
	var value float64
	for _, s := range v.Segments {
		if qMHz <= s.WidthMHz {
			return value + qMHz*s.Marginal
		}
		value += s.WidthMHz * s.Marginal
		qMHz -= s.WidthMHz
	}
	return value
}

// Scale returns the valuation with every marginal multiplied by f — the
// "report a shaded/inflated valuation" deviation the truthfulness property
// tests exercise. Scaling by a non-negative factor preserves concavity.
func (v Valuation) Scale(f float64) Valuation {
	out := Valuation{Segments: make([]ValuationSegment, len(v.Segments))}
	for i, s := range v.Segments {
		out.Segments[i] = ValuationSegment{WidthMHz: s.WidthMHz, Marginal: s.Marginal * f}
	}
	return out
}

// RandomValuation draws a random valid concave valuation spanning roughly a
// host of capMHz, with marginals in a realistic credits/s/MHz range. Used by
// the mechanism property-test battery and the truthfulness probe in
// internal/experiment; deterministic given the rng source.
func RandomValuation(src *rng.Source, capMHz float64) Valuation {
	n := 1 + src.Intn(4)
	v := Valuation{Segments: make([]ValuationSegment, 0, n)}
	marginal := 1e-4 * src.Uniform(1, 100)
	for i := 0; i < n; i++ {
		width := capMHz / float64(n) * src.Uniform(0.2, 1.8)
		v.Segments = append(v.Segments, ValuationSegment{WidthMHz: width, Marginal: marginal})
		marginal *= src.Uniform(0.05, 1)
	}
	return v
}

// ValuationFromRate derives the synthetic concave valuation the market
// adapter uses for bids that carry only a spend rate (the paper's
// budget/deadline bids): three equal-width segments over the host's capacity
// with marginals 1.5x, 1.0x and 0.5x the uniform rate, so the value of the
// whole host equals the spend rate exactly. Front-loading the marginals says
// "the first third of the host matters most", which keeps VCG allocations
// interior instead of winner-take-all while conserving the bid's total
// willingness to pay.
func ValuationFromRate(rate, capacityMHz float64) Valuation {
	if !(rate > 0) || !(capacityMHz > 0) ||
		math.IsInf(rate, 0) || math.IsInf(capacityMHz, 0) {
		return Valuation{}
	}
	third := capacityMHz / 3
	unit := rate / capacityMHz
	return Valuation{Segments: []ValuationSegment{
		{WidthMHz: third, Marginal: 1.5 * unit},
		{WidthMHz: third, Marginal: 1.0 * unit},
		{WidthMHz: third, Marginal: 0.5 * unit},
	}}
}
