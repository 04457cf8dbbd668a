// Package mechanism holds the pluggable clearing rules of the per-host
// market. internal/auction owns bid lifecycle (budgets, deadlines, boosts,
// charging, expiry); a Mechanism owns only the economics of one reallocation:
// given the live bids and the host's capacity, who gets what fraction of the
// CPU, at what pay rate, and what spot price gets published.
//
// Three mechanisms ship:
//
//   - proportional: the paper's proportional-share rule (§2.2). Share =
//     rate/Σrates, pay rate = bid rate, price = Σrates. The default, and
//     bit-for-bit identical to the pre-refactor auction (golden-tested).
//   - posted-price: a commodity market in the sense of Buyya's economic-model
//     survey. The host publishes a price; bidders are admitted greedily at
//     that price until capacity runs out; the price adjusts tatonnement-style
//     toward a demand target after every clear.
//   - vcg: welfare-maximizing allocation over concave piecewise-linear SLA
//     valuations (internal/sla), each winner paying the externality its
//     presence imposes on the rest — truthful and individually rational.
//
// # Determinism contract
//
// Mechanisms are pure functions of (bids, capacity) plus their own explicit
// state; they never read clocks, maps in range order, or global RNGs. Callers
// pass bids sorted ascending by bidder with unique bidders; every float fold
// inside a mechanism runs in a deterministic order so the same inputs produce
// the same bits on every run, any shard layout, and any worker count.
// Defensively (for fuzzing), mechanisms tolerate unsorted, duplicate and
// non-finite input by normalizing first — the normalization is the identity
// on contract-conforming input, which is how the proportional path keeps the
// legacy fold order exactly.
package mechanism

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"tycoongrid/internal/sla"
)

// Bid is one bidder's standing request as the mechanism sees it.
type Bid struct {
	Bidder string
	// Rate is the reported spend rate in credits/second — the budget
	// amortized over the time to deadline (paper §2.2).
	Rate float64
	// Valuation optionally carries a concave piecewise-linear value curve
	// (credits/second at each capacity level) for value-aware mechanisms.
	// When nil, such mechanisms derive one from Rate via
	// sla.ValuationFromRate.
	Valuation *sla.Valuation
}

// Capacity describes the host being allocated.
type Capacity struct {
	MHz     float64 // CPU capacity
	Reserve float64 // price floor, credits/second, models opportunity cost
}

// Line is one bidder's row in an Outcome.
type Line struct {
	Bidder   string
	Fraction float64 // share of the host CPU, in [0, 1]
	PayRate  float64 // credits/second charged while the bidder is active
}

// Outcome is the result of one clearing: allocation lines sorted ascending by
// bidder and the published spot price (>= the reserve, finite, non-negative).
type Outcome struct {
	Lines []Line
	Price float64
}

// Line returns the line for a bidder and whether one exists.
func (o Outcome) Line(bidder string) (Line, bool) {
	i := sort.Search(len(o.Lines), func(i int) bool { return o.Lines[i].Bidder >= bidder })
	if i < len(o.Lines) && o.Lines[i].Bidder == bidder {
		return o.Lines[i], true
	}
	return Line{}, false
}

// Mechanism is a clearing rule. Quote computes the outcome without advancing
// any internal state (safe to call for inspection, e.g. share queries between
// ticks); Clear is the authoritative per-interval reallocation and may update
// state such as the posted price. For stateless mechanisms the two coincide.
//
// Settled reports whether clearing an empty book has become a fixed point:
// once it is true, Clear(nil, cap) publishes the same price every time and
// changes nothing a later Quote or Clear can see, until a Clear with bids
// moves the state again. It is what lets a market stop clearing an idle host
// (auction.Market.Sleep). A stateless rule is always settled; posted-price is
// once its price has decayed to the reserve.
//
// Stateless reports whether Clear is Quote — the rule carries nothing from
// one clear to the next — so that the outcome of a clear is also the quote of
// the same book for as long as the book does not change. It is what lets a
// market serve shares from its last clear instead of quoting again.
//
// Quote and Clear append the outcome's lines to dst[:0], a buffer of the
// caller's passed as buf... — a market hands the same one to every clear and
// quote it runs under its lock, so clearing a busy host allocates nothing.
// With no dst the lines are a fresh slice. Either way the lines are the
// caller's: a mechanism instance keeps no buffer of its own, so two quotes on
// one instance (a truthful and a deviated report, say) never share lines.
//
// No method retains the bids slice or the dst buffer it is given; callers
// may reuse both.
type Mechanism interface {
	Name() string
	Quote(bids []Bid, cap Capacity, dst ...Line) Outcome
	Clear(bids []Bid, cap Capacity, dst ...Line) Outcome
	Settled(cap Capacity) bool
	Stateless() bool
}

// linesInto returns the empty slice an outcome of n lines is appended to:
// dst's backing array, or a fresh one with room for n when dst is nil.
func linesInto(dst []Line, n int) []Line {
	if dst == nil {
		return make([]Line, 0, n)
	}
	return dst[:0]
}

// Canonical mechanism names accepted by New and the -mechanism CLI flags.
const (
	Proportional = "proportional"
	PostedPrice  = "posted-price"
	VCG          = "vcg"
)

// Config carries mechanism tuning knobs; zero values select defaults.
type Config struct {
	// PostedInitialPrice seeds the posted-price mechanism's published price
	// (credits/second for the whole host). Default: the capacity reserve at
	// first clear.
	PostedInitialPrice float64
	// PostedAlpha is the tatonnement step size. Default 0.1.
	PostedAlpha float64
	// PostedTarget is the demand-share target the posted price steers toward
	// (1 = fully subscribed). Default 1.
	PostedTarget float64
}

// ErrUnknown reports an unrecognized mechanism name.
var ErrUnknown = errors.New("mechanism: unknown mechanism")

// New builds a fresh mechanism instance by canonical name. Each host market
// needs its own instance: posted-price carries per-host price state. The
// empty name selects the proportional default.
func New(name string, cfg Config) (Mechanism, error) {
	switch name {
	case "", Proportional:
		return proportional{}, nil
	case PostedPrice, "posted":
		return newPostedPrice(cfg), nil
	case VCG:
		return vcg{}, nil
	}
	return nil, fmt.Errorf("%w: %q (have %v)", ErrUnknown, name, Names())
}

// Names lists the canonical mechanism names in deterministic order.
func Names() []string { return []string{Proportional, PostedPrice, VCG} }

// saneRate reports whether a reported rate is usable: positive, finite, and
// below an absurdity bound that keeps every in-mechanism price fold finite
// (no real spend rate comes within hundreds of orders of magnitude of it).
func saneRate(r float64) bool { return r > 0 && r < 1e300 }

// normalize enforces the input contract — sane rates, sorted ascending by
// bidder, unique bidders — copying only when the input violates it, so the
// conforming path (the auction core) hands its slice through untouched and
// fold order is exactly the legacy order.
func normalize(bids []Bid) []Bid {
	ok := true
	for i, b := range bids {
		if !saneRate(b.Rate) || b.Bidder == "" || (i > 0 && bids[i-1].Bidder >= b.Bidder) {
			ok = false
			break
		}
	}
	if ok {
		return bids
	}
	out := make([]Bid, 0, len(bids))
	for _, b := range bids {
		if saneRate(b.Rate) && b.Bidder != "" {
			out = append(out, b)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Bidder < out[j].Bidder })
	// Keep the first occurrence of each duplicate bidder.
	uniq := out[:0]
	for _, b := range out {
		if len(uniq) == 0 || uniq[len(uniq)-1].Bidder != b.Bidder {
			uniq = append(uniq, b)
		}
	}
	return uniq
}

// saneCapacity clamps a Capacity to usable values: non-finite or negative
// reserves become 0, and the boolean reports whether the MHz is allocatable.
func saneCapacity(cap Capacity) (Capacity, bool) {
	if math.IsNaN(cap.Reserve) || math.IsInf(cap.Reserve, 0) || cap.Reserve < 0 {
		cap.Reserve = 0
	}
	if !(cap.MHz > 0) || math.IsInf(cap.MHz, 1) {
		return cap, false
	}
	return cap, true
}
