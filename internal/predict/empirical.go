package predict

import (
	"errors"
	"fmt"
	"sort"

	"tycoongrid/internal/stats"
)

// The paper's future work proposes "extending the lightweight prediction
// model presented here to handle arbitrary distributions". EmpiricalPrice
// does that: instead of assuming a normal spot price, it derives quantiles
// directly from the slot-table distribution the auctioneer already keeps
// (§4.5), so heavy-tailed or multi-modal price regimes are represented
// faithfully.

// QuantileModel is any per-host price model that can produce "price with
// probability p the spot price is below" — the normal HostPrice and the
// EmpiricalPrice both implement it.
type QuantileModel interface {
	QuantilePrice(p float64) (float64, error)
}

var _ QuantileModel = HostPrice{}

// EmpiricalPrice models the spot price by its observed distribution.
type EmpiricalPrice struct {
	HostID     string
	Preference float64 // w_j, host capacity in MHz
	buckets    []stats.Bucket
	total      float64
}

// NewEmpiricalPrice builds a model from slot-table buckets (proportions must
// be non-negative; they are renormalized).
func NewEmpiricalPrice(hostID string, preference float64, buckets []stats.Bucket) (*EmpiricalPrice, error) {
	if preference <= 0 {
		return nil, fmt.Errorf("predict: non-positive preference %v", preference)
	}
	if len(buckets) == 0 {
		return nil, errors.New("predict: no buckets")
	}
	cp := make([]stats.Bucket, len(buckets))
	copy(cp, buckets)
	sort.Slice(cp, func(i, j int) bool { return cp[i].Lo < cp[j].Lo })
	var total float64
	for _, b := range cp {
		if b.Proportion < 0 || b.Hi < b.Lo {
			return nil, fmt.Errorf("predict: malformed bucket %+v", b)
		}
		total += b.Proportion
	}
	if total <= 0 {
		return nil, errors.New("predict: empty distribution")
	}
	return &EmpiricalPrice{HostID: hostID, Preference: preference, buckets: cp, total: total}, nil
}

// NewEmpiricalPriceFromSample builds a model by binning a raw price sample
// into `slots` buckets.
func NewEmpiricalPriceFromSample(hostID string, preference float64, sample []float64, slots int) (*EmpiricalPrice, error) {
	if len(sample) == 0 {
		return nil, errors.New("predict: empty sample")
	}
	st, err := stats.NewSlotTable(slots)
	if err != nil {
		return nil, err
	}
	for _, x := range sample {
		st.Observe(x)
	}
	return NewEmpiricalPrice(hostID, preference, st.Buckets())
}

// QuantilePrice returns the p-quantile of the observed distribution with
// linear interpolation inside the containing bucket.
func (e *EmpiricalPrice) QuantilePrice(p float64) (float64, error) {
	if !(p > 0 && p < 1) {
		return 0, fmt.Errorf("predict: guarantee level %v outside (0,1)", p)
	}
	target := p * e.total
	var cum float64
	for _, b := range e.buckets {
		if cum+b.Proportion >= target {
			frac := 0.0
			if b.Proportion > 0 {
				frac = (target - cum) / b.Proportion
			}
			q := b.Lo + frac*(b.Hi-b.Lo)
			if q < 0 {
				q = 0
			}
			return q, nil
		}
		cum += b.Proportion
	}
	// Numerical slack: return the upper edge.
	last := e.buckets[len(e.buckets)-1]
	if last.Hi < 0 {
		return 0, nil
	}
	return last.Hi, nil
}
