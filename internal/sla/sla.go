// Package sla implements the reservation mechanisms the paper's conclusion
// proposes as future work (§7): "higher-level reservation mechanisms, such
// as Service Level Agreements ... and Swing Options can be built on top of
// the prediction infrastructure presented here to provide more user-oriented
// QoS guarantees".
//
// Two instruments are provided, both priced from the §4 prediction models:
//
//   - Agreement: a capacity SLA — the broker promises at least C MHz on a
//     host for a time window; every monitoring interval in which delivery
//     falls short is a violation. The premium is the predicted cost of
//     holding the capacity at confidence level p plus a margin; the
//     prediction theory says the violation rate should calibrate to about
//     1-p.
//
//   - SwingOption: the right, not the obligation, to buy CPU at a fixed
//     strike price during a window. Priced with the Bachelier formula, the
//     arithmetic-normal analogue of Black-Scholes, which is exactly the
//     §4.2 normal spot-price model: E[max(Y-s, 0)] = sigma*phi(d) +
//     (mu-s)*Phi(d), d = (mu-s)/sigma.
package sla

import (
	"errors"
	"fmt"
	"time"

	"tycoongrid/internal/bank"
	"tycoongrid/internal/mathx"
	"tycoongrid/internal/predict"
)

// Quote prices a capacity SLA.
type Quote struct {
	CapacityMHz float64
	SpendRate   float64     // credits/second needed to hold the capacity at p
	Premium     bank.Amount // up-front price of the agreement
}

// Pricing errors.
var (
	ErrInfeasible = errors.New("sla: capacity not deliverable at any price")
	ErrBadTerms   = errors.New("sla: invalid terms")
)

// PriceAgreement quotes an SLA for holding capacityMHz on the host described
// by model (with total capacity hostMHz) for window at confidence p, the
// probability the spot market alone delivers. margin is the broker's loading
// factor (e.g. 0.2 = 20%).
func PriceAgreement(model predict.QuantileModel, hostMHz, capacityMHz float64,
	window time.Duration, p, margin float64) (Quote, error) {
	if capacityMHz <= 0 || window <= 0 || margin < 0 {
		return Quote{}, ErrBadTerms
	}
	if !(p > 0 && p < 1) {
		return Quote{}, fmt.Errorf("%w: confidence %v", ErrBadTerms, p)
	}
	if capacityMHz >= hostMHz {
		return Quote{}, fmt.Errorf("%w: want %v of %v MHz", ErrInfeasible, capacityMHz, hostMHz)
	}
	y, err := model.QuantilePrice(p)
	if err != nil {
		return Quote{}, err
	}
	// Spend rate x with w*x/(x+y) = C  =>  x = y*C/(w-C).
	rate := y * capacityMHz / (hostMHz - capacityMHz)
	premium, err := bank.FromCredits(rate * window.Seconds() * (1 + margin))
	if err != nil {
		return Quote{}, err
	}
	return Quote{CapacityMHz: capacityMHz, SpendRate: rate, Premium: premium}, nil
}

// Agreement is an active SLA being monitored.
type Agreement struct {
	Quote Quote

	intervals  int
	violations int
}

// Accept activates a quoted agreement.
func Accept(q Quote) *Agreement {
	return &Agreement{Quote: q}
}

// Observe records one monitoring interval: the capacity actually delivered
// over dt. Deliveries below the contracted capacity are violations.
func (a *Agreement) Observe(deliveredMHz float64, dt time.Duration) error {
	if dt <= 0 {
		return fmt.Errorf("%w: non-positive interval", ErrBadTerms)
	}
	a.intervals++
	if deliveredMHz < a.Quote.CapacityMHz {
		a.violations++
	}
	return nil
}

// ViolationRate returns the fraction of observed intervals in violation.
func (a *Agreement) ViolationRate() float64 {
	if a.intervals == 0 {
		return 0
	}
	return float64(a.violations) / float64(a.intervals)
}

// ---------------------------------------------------------------------------
// Swing options
// ---------------------------------------------------------------------------

// SwingOption is the right to buy CPU time at a strike spot price for up to
// `Rights` exercise intervals inside a window.
type SwingOption struct {
	Strike   float64 // credits/second
	Rights   int     // number of intervals that may be exercised
	Interval time.Duration
	Premium  bank.Amount

	exercised int
	payoff    float64 // accumulated savings vs spot, credits
}

// BachelierCall returns E[max(Y - strike, 0)] for Y ~ N(mu, sigma^2) — the
// fair per-draw value of the right to buy at the strike when the spot is Y.
func BachelierCall(mu, sigma, strike float64) float64 {
	if sigma <= 0 {
		if mu > strike {
			return mu - strike
		}
		return 0
	}
	d := (mu - strike) / sigma
	return sigma*mathx.NormalPDF(d) + (mu-strike)*mathx.NormalCDF(d)
}

// PriceSwing quotes a swing option on a host whose spot price is modeled as
// N(mu, sigma^2): `rights` exercisable intervals out of `opportunities`
// decision points in the window, at the strike, with a margin loading.
//
// The valuation assumes the rational greedy policy (exercise whenever the
// spot exceeds the strike, until rights run out): each exercised right is
// worth the conditional payoff E[Y-s | Y>s] = BachelierCall/q with
// q = P(Y>s), and the expected number of exercises is E[min(rights, N)]
// with N ~ Binomial(opportunities, q).
func PriceSwing(mu, sigma, strike float64, rights, opportunities int,
	interval time.Duration, margin float64) (*SwingOption, error) {
	if rights < 1 || opportunities < rights || interval <= 0 || strike < 0 || sigma < 0 || margin < 0 {
		return nil, ErrBadTerms
	}
	call := BachelierCall(mu, sigma, strike)
	var fair float64
	if sigma > 0 {
		q := mathx.NormalCDF(-(strike - mu) / sigma) // P(Y > strike)
		if q > 0 {
			conditional := call / q
			fair = conditional * expectedMinBinomial(rights, opportunities, q)
		}
	} else if mu > strike {
		fair = (mu - strike) * float64(rights)
	}
	premium, err := bank.FromCredits(fair * interval.Seconds() * (1 + margin))
	if err != nil {
		return nil, err
	}
	return &SwingOption{
		Strike:   strike,
		Rights:   rights,
		Interval: interval,
		Premium:  premium,
	}, nil
}

// expectedMinBinomial returns E[min(k, N)] for N ~ Binomial(n, q), computed
// from the exact pmf via the multiplicative recurrence.
func expectedMinBinomial(k, n int, q float64) float64 {
	if q <= 0 {
		return 0
	}
	if q >= 1 {
		return float64(min(k, n))
	}
	// pmf(0) = (1-q)^n; pmf(j+1) = pmf(j) * (n-j)/(j+1) * q/(1-q).
	pmf := 1.0
	for i := 0; i < n; i++ {
		pmf *= 1 - q
	}
	ratio := q / (1 - q)
	var e float64
	for j := 0; j <= n; j++ {
		e += float64(min(j, k)) * pmf
		if j < n {
			pmf *= float64(n-j) / float64(j+1) * ratio
		}
	}
	return e
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// ShouldExercise reports whether a rational holder exercises at the current
// spot price (spot above strike and rights remaining).
func (o *SwingOption) ShouldExercise(spot float64) bool {
	return o.exercised < o.Rights && spot > o.Strike
}

// Exercise consumes one right at the given spot price and returns the saving
// for that interval (spot - strike, floored at zero).
func (o *SwingOption) Exercise(spot float64) (bank.Amount, error) {
	if o.exercised >= o.Rights {
		return 0, errors.New("sla: no rights remaining")
	}
	o.exercised++
	save := (spot - o.Strike) * o.Interval.Seconds()
	if save < 0 {
		save = 0
	}
	o.payoff += save
	return bank.FromCredits(save)
}

// Remaining returns unexercised rights.
func (o *SwingOption) Remaining() int { return o.Rights - o.exercised }

// Payoff returns accumulated savings in credits.
func (o *SwingOption) Payoff() float64 { return o.payoff }
