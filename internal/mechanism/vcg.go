package mechanism

import (
	"sort"

	"tycoongrid/internal/sla"
)

// vcg is the Vickrey–Clarke–Groves mechanism over concave piecewise-linear
// SLA valuations (internal/sla). The allocation maximizes reported welfare:
// because every valuation is concave, the LP optimum is reached by sorting
// all bidders' segments by marginal value and filling the host greedily from
// the top — the same pivot-by-best-column discipline as internal/matrix's
// elimination, with no external solver. Each winner then pays the externality
// it imposes: the welfare the others would have had without it, minus the
// welfare the others actually get. That payment rule is what makes truthful
// reporting a dominant strategy and guarantees payment <= value received
// (individual rationality) — both checked over thousands of seeded profiles
// by the property battery in this package.
//
// Bids that carry no explicit valuation get a synthetic concave one derived
// from their spend rate (sla.ValuationFromRate), normalized so the value of
// the whole host equals the rate; the market path therefore never pays more
// than the bid's amortized budget.
type vcg struct{}

func (vcg) Name() string { return VCG }

func valuationOf(b Bid, capMHz float64) sla.Valuation {
	if b.Valuation != nil && len(b.Valuation.Segments) > 0 && b.Valuation.Validate() == nil {
		return *b.Valuation
	}
	return sla.ValuationFromRate(b.Rate, capMHz)
}

// vcgSeg is one valuation segment tagged with its owner for the greedy fill.
type vcgSeg struct {
	owner    int // index into the bid slice
	idx      int // segment index within the owner's valuation
	width    float64
	marginal float64
}

// vcgFill greedily fills capMHz from the highest-marginal segments, skipping
// the bidder at index skip (-1 for nobody). It returns each bidder's
// allocated MHz and the achieved welfare in credits/second. The fill order is
// totally deterministic: marginal descending, then owner ascending, then
// segment index ascending; welfare accumulates in that same order.
func vcgFill(segs []vcgSeg, n int, capMHz float64, skip int) (q []float64, welfare float64) {
	q = make([]float64, n)
	free := capMHz
	for _, s := range segs {
		if free <= 0 {
			break
		}
		if s.owner == skip {
			continue
		}
		take := s.width
		if take > free {
			take = free
		}
		q[s.owner] += take
		welfare += take * s.marginal
		free -= take
	}
	return q, welfare
}

func (v vcg) Quote(bids []Bid, capacity Capacity, dst ...Line) Outcome {
	bids = normalize(bids)
	capacity, allocatable := saneCapacity(capacity)
	out := Outcome{Price: capacity.Reserve}
	if out.Price <= 0 {
		out.Price = 1e-6
	}
	if !allocatable || len(bids) == 0 {
		return out
	}

	vals := make([]sla.Valuation, len(bids))
	var segs []vcgSeg
	for i, b := range bids {
		vals[i] = valuationOf(b, capacity.MHz)
		for j, s := range vals[i].Segments {
			if s.Marginal > 0 {
				segs = append(segs, vcgSeg{owner: i, idx: j, width: s.WidthMHz, marginal: s.Marginal})
			}
		}
	}
	sort.Slice(segs, func(i, j int) bool {
		if segs[i].marginal != segs[j].marginal {
			return segs[i].marginal > segs[j].marginal
		}
		if segs[i].owner != segs[j].owner {
			return segs[i].owner < segs[j].owner
		}
		return segs[i].idx < segs[j].idx
	})

	q, total := vcgFill(segs, len(bids), capacity.MHz, -1)

	out.Lines = linesInto(dst, len(bids))
	var priceSum float64
	for i, b := range bids {
		got := vals[i].ValueRate(q[i])
		_, without := vcgFill(segs, len(bids), capacity.MHz, i)
		pay := without - (total - got)
		// VCG payments are provably in [0, value received]; clamp away the
		// last-ulp float noise so the invariants hold exactly.
		if pay < 0 {
			pay = 0
		}
		if pay > got {
			pay = got
		}
		frac := q[i] / capacity.MHz
		if frac > 1 {
			frac = 1
		}
		out.Lines = append(out.Lines, Line{Bidder: b.Bidder, Fraction: frac, PayRate: pay})
		priceSum += pay
	}
	if priceSum > out.Price {
		out.Price = priceSum
	}
	return out
}

// Clear is identical to Quote: VCG carries no state between intervals.
func (v vcg) Clear(bids []Bid, capacity Capacity, dst ...Line) Outcome {
	return v.Quote(bids, capacity, dst...)
}

// Settled is always true: with no state, an empty book clears to the reserve
// every time.
func (vcg) Settled(Capacity) bool { return true }

// Stateless is true: Clear is Quote.
func (vcg) Stateless() bool { return true }
