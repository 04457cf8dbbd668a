package mechanism

import (
	"math"
	"sort"
)

// postedPrice is a commodity market: the host publishes a take-it-or-leave-it
// price P (credits/second for the whole host). A bid with spend rate r
// demands the share r/P it can afford at that price. Admission is greedy by
// descending rate (ties broken ascending by bidder) until the host is full;
// the marginal bidder receives whatever partial share is left. Admitted
// bidders pay P times their share — by construction never more than their
// reported rate.
//
// Clear then adjusts the published price tatonnement-style toward a demand
// target: excess demand raises P, slack lowers it, with the per-clear step
// bounded so one pathological interval cannot destabilize the price, and the
// result floored at the reserve.
type postedPrice struct {
	price  float64 // published price; 0 until first clear seeds it
	init   float64
	alpha  float64
	target float64
}

func newPostedPrice(cfg Config) *postedPrice {
	alpha := cfg.PostedAlpha
	if alpha <= 0 {
		alpha = 0.1
	}
	target := cfg.PostedTarget
	if target <= 0 {
		target = 1
	}
	return &postedPrice{init: cfg.PostedInitialPrice, alpha: alpha, target: target}
}

func (p *postedPrice) Name() string { return PostedPrice }

// published returns the current posted price, seeding it from config or the
// reserve on first use. Never below the reserve, never non-positive.
func (p *postedPrice) published(capacity Capacity) float64 {
	price := p.price
	if price <= 0 {
		price = p.init
	}
	if price < capacity.Reserve {
		price = capacity.Reserve
	}
	if price <= 0 {
		price = 1e-6 // match the auction's idle floor of one microcredit/s
	}
	return price
}

func (p *postedPrice) Quote(bids []Bid, capacity Capacity, dst ...Line) Outcome {
	bids = normalize(bids)
	capacity, allocatable := saneCapacity(capacity)
	price := p.published(capacity)
	out := Outcome{Price: price}
	if !allocatable || len(bids) == 0 {
		return out
	}

	// Admission order: biggest spenders first, ties by bidder name so the
	// order — and therefore the allocation — is fully deterministic.
	order := make([]Bid, len(bids))
	copy(order, bids)
	sort.SliceStable(order, func(i, j int) bool {
		if order[i].Rate != order[j].Rate {
			return order[i].Rate > order[j].Rate
		}
		return order[i].Bidder < order[j].Bidder
	})

	out.Lines = linesInto(dst, len(bids))
	free := 1.0
	for _, b := range order {
		if free <= 0 {
			break
		}
		want := b.Rate / price
		if want > free {
			want = free
		}
		free -= want
		out.Lines = append(out.Lines, Line{Bidder: b.Bidder, Fraction: want, PayRate: price * want})
	}
	sort.Slice(out.Lines, func(i, j int) bool { return out.Lines[i].Bidder < out.Lines[j].Bidder })
	return out
}

// Clear quotes at the current posted price, then moves the price toward the
// demand target for the next interval.
func (p *postedPrice) Clear(bids []Bid, capacity Capacity, dst ...Line) Outcome {
	out := p.Quote(bids, capacity, dst...)
	price := out.Price

	// Total demanded share at the posted price, in ascending bidder order
	// (the normalized input order) for a deterministic fold.
	var demand float64
	for _, b := range normalize(bids) {
		demand += b.Rate / price
	}
	step := 1 + p.alpha*(demand-p.target)
	// Bound the per-clear move: at most halve or 1.5x the price.
	if step < 0.5 {
		step = 0.5
	} else if step > 1.5 {
		step = 1.5
	}
	next := price * step
	if next < capacity.Reserve {
		next = capacity.Reserve
	}
	if next <= 0 {
		next = 1e-6
	}
	if math.IsInf(next, 1) {
		next = math.MaxFloat64
	}
	p.price = next
	return out
}

// Settled reports whether the price has decayed to the reserve: from there an
// empty clear publishes the reserve, steps below it and is floored back to
// it. A host with no reserve never settles — its price keeps halving.
func (p *postedPrice) Settled(capacity Capacity) bool {
	capacity, _ = saneCapacity(capacity)
	return capacity.Reserve > 0 && p.price == capacity.Reserve
}

// Stateless is false: Clear moves the posted price, so the next Quote of the
// same book admits at a different price than the clear did.
func (*postedPrice) Stateless() bool { return false }
