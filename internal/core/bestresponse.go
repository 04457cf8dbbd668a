// Package core implements the paper's primary contribution: exposing
// Tycoon's Best Response bid optimizer to Grid HPC users. Given a total
// budget X and, for each candidate host j, a preference weight w_j (e.g. the
// host's CPU capacity) and the current price y_j (the sum of other users'
// bids), the optimizer solves
//
//	maximize   U = sum_j w_j * x_j / (x_j + y_j)
//	subject to sum_j x_j = X,  x_j >= 0                     (eq. 1-2)
//
// Feldman, Lai & Zhang show that when all users bid this way the market
// reaches an equilibrium that is both fair and economically efficient; the
// closed-form KKT solution on the optimal support set S is
//
//	x_j = sqrt(w_j*y_j/lambda) - y_j,
//	sqrt(1/lambda) = (X + sum_S y_j) / sum_S sqrt(w_j*y_j),
//
// and the support is found by water-filling: hosts are admitted in order of
// decreasing marginal utility at zero (w_j/y_j) while every admitted host's
// bid stays positive.
package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// Host is one candidate resource for the optimizer.
type Host struct {
	ID         string
	Preference float64 // w_j > 0, e.g. CPU capacity in MHz
	Price      float64 // y_j > 0, sum of other users' spend rates
}

// Allocation is the optimizer's bid for one host.
type Allocation struct {
	Host Host
	Bid  float64 // x_j >= 0, same money units as the budget
}

// Errors returned by BestResponse.
var (
	ErrNoHosts   = errors.New("core: no candidate hosts")
	ErrBadBudget = errors.New("core: budget must be positive")
	ErrBadHost   = errors.New("core: host preference and price must be positive")
)

// BestResponse computes the optimal bid distribution of budget X across
// hosts. Hosts that receive a zero bid are omitted from the result. The
// returned allocations are sorted by descending bid, then host ID.
func BestResponse(budget float64, hosts []Host) ([]Allocation, error) {
	if budget <= 0 || math.IsNaN(budget) || math.IsInf(budget, 0) {
		return nil, fmt.Errorf("%w: %v", ErrBadBudget, budget)
	}
	if len(hosts) == 0 {
		return nil, ErrNoHosts
	}
	for _, h := range hosts {
		if h.Preference <= 0 || h.Price <= 0 ||
			math.IsNaN(h.Preference) || math.IsNaN(h.Price) ||
			math.IsInf(h.Preference, 0) || math.IsInf(h.Price, 0) {
			return nil, fmt.Errorf("%w: host %q w=%v y=%v", ErrBadHost, h.ID, h.Preference, h.Price)
		}
	}

	// Admit hosts in order of decreasing marginal utility at x=0, which is
	// w_j/y_j; ties broken by ID for determinism.
	id := func(i int) string { return hosts[i].ID }
	keys := make([]rankKey, len(hosts))
	for i, h := range hosts {
		keys[i] = rankKey{primary: h.Preference / h.Price, prefix: idPrefix(h.ID), index: i}
	}
	sortRanked(keys, id)

	// Water-filling: find the largest prefix S of the ordering such that the
	// marginal host's bid stays positive. sumY and sumSqrt accumulate
	// sum_S y_j and sum_S sqrt(w_j*y_j). The bid of the *least* attractive
	// admitted host turns negative first, so the prefix test is on the last
	// admitted host.
	var sumY, sumSqrt float64
	support := 0
	for k := range keys {
		h := hosts[keys[k].index]
		sY := sumY + h.Price
		sS := sumSqrt + math.Sqrt(h.Preference*h.Price)
		c := (budget + sY) / sS
		// Bid of host k under prefix k+1.
		if math.Sqrt(h.Preference*h.Price)*c-h.Price <= 0 {
			break
		}
		sumY, sumSqrt = sY, sS
		support = k + 1
	}
	if support == 0 {
		// Even the single most attractive host would get a non-positive bid,
		// which cannot happen with positive budget: for S={j},
		// x_j = sqrt(w y)*(X+y)/sqrt(w y) - y = X > 0. Guard anyway.
		first := hosts[keys[0].index]
		support = 1
		sumY = first.Price
		sumSqrt = math.Sqrt(first.Preference * first.Price)
	}

	// The funded hosts' keys are re-keyed by bid in place, in admission
	// order — which is also the fold order of total.
	c := (budget + sumY) / sumSqrt
	funded := keys[:0]
	var total float64
	for _, key := range keys[:support] {
		h := hosts[key.index]
		x := math.Sqrt(h.Preference*h.Price)*c - h.Price
		if x <= 0 {
			continue
		}
		key.primary = x
		funded = append(funded, key)
		total += x
	}
	// Normalize rounding drift so bids sum exactly to the budget.
	if total > 0 && total != budget {
		scale := budget / total
		for i := range funded {
			funded[i].primary *= scale
		}
	}
	sortRanked(funded, id)
	allocs := make([]Allocation, len(funded))
	for i, key := range funded {
		allocs[i] = Allocation{Host: hosts[key.index], Bid: key.primary}
	}
	return allocs, nil
}

// rankKey is the compact sort key of one element being ranked: a value to
// order by, descending, and the element's ID as the ascending tie-break. A
// 10 000-host submission ranks its candidates three times (by marginal
// utility, by bid, by utility), so the value is computed once per element
// instead of in every comparison, the sort moves 24-byte keys instead of
// the elements, and the first eight bytes of the ID — compared as one
// big-endian integer — settle almost every tie without touching the string.
type rankKey struct {
	primary float64
	prefix  uint64
	index   int // of the element in the slice being ranked
}

// idPrefix packs the first eight bytes of id, zero-padded, so that unequal
// prefixes compare as integers exactly as the ids compare as strings.
func idPrefix(id string) uint64 {
	var p uint64
	for i := 0; i < 8 && i < len(id); i++ {
		p |= uint64(id[i]) << (56 - 8*i)
	}
	return p
}

// sortRanked orders keys by descending primary, then ascending ID; id
// returns the full ID of the element at an index and is consulted only for
// two elements with equal primaries and equal prefixes. The order is the
// same total order as comparing (primary, ID) directly.
func sortRanked(keys []rankKey, id func(index int) string) {
	slices.SortFunc(keys, func(a, b rankKey) int {
		switch {
		case a.primary > b.primary:
			return -1
		case a.primary < b.primary:
			return 1
		case a.prefix < b.prefix:
			return -1
		case a.prefix > b.prefix:
			return 1
		}
		return strings.Compare(id(a.index), id(b.index))
	})
}

// ErrBadWeights is returned by SplitByWeights for weight vectors that cannot
// direct a budget: wrong length, negative, non-finite, or summing to zero.
var ErrBadWeights = errors.New("core: weights must be non-negative, finite, and sum positive")

// SplitByWeights distributes budget across hosts in proportion to the given
// weights — the portfolio-directed alternative to the greedy equal-marginal
// shares of BestResponse (paper §4.4: bids follow the Markowitz portfolio
// over hosts instead of the myopic KKT solution). Hosts with zero weight are
// omitted; the result follows the BestResponse contract (bids sum to the
// budget, sorted by descending bid then host ID).
func SplitByWeights(budget float64, hosts []Host, weights []float64) ([]Allocation, error) {
	if budget <= 0 || math.IsNaN(budget) || math.IsInf(budget, 0) {
		return nil, fmt.Errorf("%w: %v", ErrBadBudget, budget)
	}
	if len(hosts) == 0 {
		return nil, ErrNoHosts
	}
	if len(weights) != len(hosts) {
		return nil, fmt.Errorf("%w: %d weights for %d hosts", ErrBadWeights, len(weights), len(hosts))
	}
	var sum float64
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("%w: weight %v for host %q", ErrBadWeights, w, hosts[i].ID)
		}
		sum += w
	}
	if sum <= 0 {
		return nil, fmt.Errorf("%w: sum %v", ErrBadWeights, sum)
	}
	allocs := make([]Allocation, 0, len(hosts))
	for i, h := range hosts {
		if weights[i] == 0 {
			continue
		}
		if h.Preference <= 0 || h.Price <= 0 ||
			math.IsNaN(h.Preference) || math.IsNaN(h.Price) ||
			math.IsInf(h.Preference, 0) || math.IsInf(h.Price, 0) {
			return nil, fmt.Errorf("%w: host %q w=%v y=%v", ErrBadHost, h.ID, h.Preference, h.Price)
		}
		allocs = append(allocs, Allocation{Host: h, Bid: budget * weights[i] / sum})
	}
	sort.Slice(allocs, func(i, j int) bool {
		if allocs[i].Bid != allocs[j].Bid {
			return allocs[i].Bid > allocs[j].Bid
		}
		return allocs[i].Host.ID < allocs[j].Host.ID
	})
	return allocs, nil
}

// Utility evaluates eq. (1) for a set of allocations: the total utility the
// bidder obtains given that each host's final price is y_j + x_j.
func Utility(allocs []Allocation) float64 {
	var u float64
	for _, a := range allocs {
		if a.Bid <= 0 {
			continue
		}
		u += a.Host.Preference * a.Bid / (a.Bid + a.Host.Price)
	}
	return u
}

// UtilityAt evaluates the utility of bidding x on a single host.
func UtilityAt(h Host, x float64) float64 {
	if x <= 0 {
		return 0
	}
	return h.Preference * x / (x + h.Price)
}

// TopN returns the n largest allocations (already the ordering of
// BestResponse output); it is a convenience for job managers that can use at
// most n concurrent virtual machines (the XRSL count attribute).
func TopN(allocs []Allocation, n int) []Allocation {
	if n <= 0 || n >= len(allocs) {
		return allocs
	}
	return allocs[:n]
}

// TopNByUtility returns the n allocations with the largest utility
// contribution w_j*x_j/(x_j+y_j). This is the right cap for the XRSL count
// attribute: a tiny bid on an idle host buys nearly the whole host, so
// ranking by bid size would discard exactly the best deals.
func TopNByUtility(allocs []Allocation, n int) []Allocation {
	if n <= 0 || n >= len(allocs) {
		return allocs
	}
	keys := make([]rankKey, len(allocs))
	for i, a := range allocs {
		keys[i] = rankKey{primary: UtilityAt(a.Host, a.Bid), prefix: idPrefix(a.Host.ID), index: i}
	}
	sortRanked(keys, func(i int) string { return allocs[i].Host.ID })
	top := make([]Allocation, n)
	for i := range top {
		top[i] = allocs[keys[i].index]
	}
	return top
}

// Rebalance redistributes the budget over only the hosts in keep (a subset
// of prior allocations), re-running BestResponse with fresh prices. Job
// managers use it after capping the host count with TopN.
func Rebalance(budget float64, keep []Allocation) ([]Allocation, error) {
	hosts := make([]Host, len(keep))
	for i, a := range keep {
		hosts[i] = a.Host
	}
	return BestResponse(budget, hosts)
}
