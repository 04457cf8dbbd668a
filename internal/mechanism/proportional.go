package mechanism

// proportional is the paper's §2.2 rule and the repository default: each
// bidder receives the fraction of the host equal to its spend rate divided by
// the sum of all spend rates, pays exactly its own rate while active, and the
// published spot price is the rate sum floored at the reserve.
//
// Bit-identity note: the price fold below is a plain += over bids in
// ascending bidder order — the same add sequence as mathx.SortedSum over the
// legacy auction's bid map — so the refactored auction reproduces the
// pre-mechanism spot prices exactly (see the golden test in
// internal/experiment).
type proportional struct{}

func (proportional) Name() string { return Proportional }

// Quote and Clear are the same function, share: the rule carries no state.
// (They call it rather than each other so that a profile tells a clear from
// a re-quote.)
func (proportional) Quote(bids []Bid, capacity Capacity, dst ...Line) Outcome {
	return share(bids, capacity, dst)
}
func (proportional) Clear(bids []Bid, capacity Capacity, dst ...Line) Outcome {
	return share(bids, capacity, dst)
}

func share(bids []Bid, capacity Capacity, dst []Line) Outcome {
	bids = normalize(bids)
	capacity, allocatable := saneCapacity(capacity)
	var total float64
	for _, b := range bids {
		total += b.Rate
	}
	price := total
	if price < capacity.Reserve {
		price = capacity.Reserve
	}
	out := Outcome{Price: price}
	if !allocatable {
		return out
	}
	out.Lines = linesInto(dst, len(bids))
	for _, b := range bids {
		frac := 0.0
		if total > 0 {
			frac = b.Rate / total
		}
		out.Lines = append(out.Lines, Line{Bidder: b.Bidder, Fraction: frac, PayRate: b.Rate})
	}
	return out
}

// Settled is always true: with no state, an empty book clears to the reserve
// every time.
func (proportional) Settled(Capacity) bool { return true }

// Stateless is true: Clear is Quote.
func (proportional) Stateless() bool { return true }
