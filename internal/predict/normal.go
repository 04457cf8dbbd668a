// Package predict implements the paper's price and performance prediction
// suite (§4): the lightweight stateless normal-distribution model with
// probability guarantees and budget recommendations (§4.2, Figure 3), the
// AR(k) time-series model fitted by Yule-Walker/Levinson with a smoothing
// spline pre-pass (§4.3, Figure 4), and the prediction-error metric used to
// compare models against the persistence benchmark.
package predict

import (
	"errors"
	"fmt"
	"math"

	"tycoongrid/internal/core"
	"tycoongrid/internal/mathx"
)

// HostPrice is the stateless per-host price summary of §4.2: only the
// running mean and standard deviation of the spot price are kept on the
// auctioneer ("no data points need to be stored").
type HostPrice struct {
	HostID string
	// Preference is w_j, e.g. the host's CPU capacity in MHz.
	Preference float64
	// Mu and Sigma are the measured mean and standard deviation of the spot
	// price (credits/second) over the chosen time window.
	Mu, Sigma float64
}

// QuantilePrice returns the price y the host offers with probability p:
// with probability p the price is <= y = mu + sigma*Phi^-1(p)  (eq. 5).
func (h HostPrice) QuantilePrice(p float64) (float64, error) {
	if !(p > 0 && p < 1) {
		return 0, fmt.Errorf("predict: guarantee level %v outside (0,1)", p)
	}
	if h.Sigma < 0 {
		return 0, fmt.Errorf("predict: negative sigma %v", h.Sigma)
	}
	y := h.Mu + h.Sigma*mathx.NormalQuantile(p)
	// A heavily left-skewed window can push the quantile negative; prices
	// cannot go below zero.
	if y < 0 {
		y = 0
	}
	return y, nil
}

// ErrNoHosts mirrors core.ErrNoHosts for the prediction entry points.
var ErrNoHosts = errors.New("predict: no hosts")

// GuaranteedUtility computes eq. (6): the utility U_i(X, p) obtained with
// budget X (credits/second of spend rate) when every host's price is at its
// p-quantile, with bids x_j chosen by the Best Response algorithm against
// those quantile prices. For a single host with Preference = capacity MHz
// this is the guaranteed CPU capacity of Figure 3.
func GuaranteedUtility(budget, p float64, hosts []HostPrice) (float64, error) {
	allocs, err := guaranteedAllocs(budget, p, hosts)
	if err != nil {
		return 0, err
	}
	return core.Utility(allocs), nil
}

func guaranteedAllocs(budget, p float64, hosts []HostPrice) ([]core.Allocation, error) {
	if len(hosts) == 0 {
		return nil, ErrNoHosts
	}
	ch := make([]core.Host, 0, len(hosts))
	for _, h := range hosts {
		y, err := h.QuantilePrice(p)
		if err != nil {
			return nil, err
		}
		if y <= 0 {
			y = 1e-9 // quantile clipped at zero: effectively free host
		}
		ch = append(ch, core.Host{ID: h.HostID, Preference: h.Preference, Price: y})
	}
	return core.BestResponse(budget, ch)
}

// GuaranteedCapacityMHz is the single-host form used by Figure 3: the CPU
// capacity (MHz) a user who spends budget (credits/second) on this host
// receives with probability p. The whole budget is bid on the host, so the
// share is x/(x + y_p).
func GuaranteedCapacityMHz(h HostPrice, budget, p float64) (float64, error) {
	if budget <= 0 {
		return 0, fmt.Errorf("predict: non-positive budget %v", budget)
	}
	y, err := h.QuantilePrice(p)
	if err != nil {
		return 0, err
	}
	return h.Preference * budget / (budget + y), nil
}

// RecommendBudget inverts GuaranteedCapacityMHz: the smallest spend rate
// (credits/second) that delivers at least targetMHz with probability p on
// host h. It fails when the target exceeds what the host can deliver at any
// price.
func RecommendBudget(h HostPrice, targetMHz, p float64) (float64, error) {
	if targetMHz <= 0 {
		return 0, fmt.Errorf("predict: non-positive target %v", targetMHz)
	}
	if targetMHz >= h.Preference {
		return 0, fmt.Errorf("predict: target %v MHz >= host capacity %v MHz", targetMHz, h.Preference)
	}
	y, err := h.QuantilePrice(p)
	if err != nil {
		return 0, err
	}
	// capacity = w*x/(x+y) = target  =>  x = y*target/(w-target).
	if y == 0 {
		return 0, nil // free host: any positive spend gets the full share
	}
	return y * targetMHz / (h.Preference - targetMHz), nil
}

// DeadlineProbability answers "will the job make its deadline": given that
// meeting deadline d requires utility of at least uRequired, it returns the
// largest guarantee level p (searched over (0,1)) at which the budget still
// delivers uRequired. Higher p means the deadline is safer.
func DeadlineProbability(budget, uRequired float64, hosts []HostPrice) (float64, error) {
	if uRequired <= 0 {
		return 0, errors.New("predict: required utility must be positive")
	}
	// Utility is decreasing in p (higher guarantee => higher assumed price).
	lo, hi := 1e-6, 1-1e-6
	uLo, err := GuaranteedUtility(budget, lo, hosts)
	if err != nil {
		return 0, err
	}
	if uLo < uRequired {
		return 0, nil // even the optimistic price cannot meet it
	}
	uHi, err := GuaranteedUtility(budget, hi, hosts)
	if err != nil {
		return 0, err
	}
	if uHi >= uRequired {
		return 1, nil // met at essentially any price
	}
	f := func(p float64) float64 {
		u, err := GuaranteedUtility(budget, p, hosts)
		if err != nil {
			return -uRequired
		}
		return u - uRequired
	}
	root, err := mathx.Bisect(f, lo, hi, 1e-9)
	if err != nil {
		return 0, err
	}
	return root, nil
}

// Knee returns the "recommended budget" of Figure 3's discussion: the point
// where the capacity curve flattens, defined as the smallest budget at which
// the marginal capacity per budget unit falls below frac (e.g. 0.05) of the
// curve's initial marginal capacity.
func Knee(h HostPrice, p, frac, maxBudget float64) (float64, error) {
	if frac <= 0 || frac >= 1 {
		return 0, fmt.Errorf("predict: knee fraction %v outside (0,1)", frac)
	}
	const steps = 2000
	db := maxBudget / steps
	if db <= 0 {
		return 0, errors.New("predict: non-positive budget range")
	}
	prev, err := GuaranteedCapacityMHz(h, db/2, p)
	if err != nil {
		return 0, err
	}
	first := math.NaN()
	for i := 1; i < steps; i++ {
		b := (float64(i) + 0.5) * db
		cur, err := GuaranteedCapacityMHz(h, b, p)
		if err != nil {
			return 0, err
		}
		slope := (cur - prev) / db
		if math.IsNaN(first) {
			first = slope
			if first <= 0 {
				return db, nil
			}
		} else if slope < frac*first {
			return b, nil
		}
		prev = cur
	}
	return maxBudget, nil
}
