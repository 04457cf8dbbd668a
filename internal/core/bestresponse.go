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
	funded, err := solve(budget, hosts)
	if err != nil {
		return nil, err
	}
	return allocations(hosts, funded), nil
}

// BestResponseCapped is Best Response for a bidder that can use at most n
// hosts (the XRSL count attribute): solve over every candidate, keep the n
// funded hosts with the largest utility contribution, and solve again over
// those. When more than n hosts are funded it returns what
//
//	Rebalance(budget, TopNByUtility(BestResponse(budget, hosts), n))
//
// returns, and otherwise (or when n <= 0) what BestResponse returns — without
// building or ranking an Allocation per funded host, which on a wide, mostly
// idle grid is every candidate.
func BestResponseCapped(budget float64, hosts []Host, n int) ([]Allocation, error) {
	funded, err := solve(budget, hosts)
	if err != nil {
		return nil, err
	}
	if n <= 0 || members(funded) <= n {
		return allocations(hosts, funded), nil
	}
	// Bounded insertion into the n best by (utility desc, ID asc). The members
	// of a run share one utility and come in ID order, so once one of them is
	// refused the rest would be too.
	before := rankOrder(func(i int) string { return hosts[i].ID })
	top := make([]rankKey, 0, n)
	for _, r := range funded {
		first, end := r.span()
		u := UtilityAt(hosts[first], r.primary)
		for h := first; h < end; h++ {
			key := newRankKey(u, hosts[h].ID, h)
			if len(top) == n {
				if before(key, top[n-1]) >= 0 {
					break
				}
				top = top[:n-1]
			}
			at := len(top)
			for at > 0 && before(key, top[at-1]) < 0 {
				at--
			}
			top = slices.Insert(top, at, key)
		}
	}
	keep := make([]Host, len(top))
	for i, key := range top {
		keep[i] = hosts[key.index]
	}
	return BestResponse(budget, keep)
}

// solve is the water-fill behind BestResponse and BestResponseCapped. It
// returns the funded hosts as runs in admission order, each keyed by the bid
// every one of its members gets.
//
// A run is a stretch of consecutive candidates with equal preference and
// price and strictly ascending IDs. Tycoon prices an idle host at its
// reserve, so on a wide grid almost every candidate belongs to one of a few
// long runs, and ranking runs instead of hosts is what keeps a submission
// from sorting 10 000 keys. The result is the per-host result bit for bit:
// the sums below still take one addend per member, in admission order.
func solve(budget float64, hosts []Host) ([]rankKey, error) {
	if budget <= 0 || math.IsNaN(budget) || math.IsInf(budget, 0) {
		return nil, fmt.Errorf("%w: %v", ErrBadBudget, budget)
	}
	if len(hosts) == 0 {
		return nil, ErrNoHosts
	}
	// starts has a bit per candidate, set where a run starts.
	starts := make([]uint64, (len(hosts)+63)/64)
	nRuns := 0
	for i, h := range hosts {
		if h.Preference <= 0 || h.Price <= 0 ||
			math.IsNaN(h.Preference) || math.IsNaN(h.Price) ||
			math.IsInf(h.Preference, 0) || math.IsInf(h.Price, 0) {
			return nil, fmt.Errorf("%w: host %q w=%v y=%v", ErrBadHost, h.ID, h.Preference, h.Price)
		}
		if i == 0 || !extendsRun(hosts[i-1], h) {
			starts[i/64] |= 1 << (i % 64)
			nRuns++
		}
	}

	// Admit hosts in order of decreasing marginal utility at x=0, which is
	// w_j/y_j; ties broken by ID for determinism.
	runs := make([]rankKey, 0, nRuns)
	for i, h := range hosts {
		if starts[i/64]>>(i%64)&1 == 0 {
			runs[len(runs)-1].n++
			continue
		}
		runs = append(runs, newRankKey(h.Preference/h.Price, h.ID, i))
	}
	runs = sortRuns(runs, hosts)

	// Water-filling: find the largest prefix S of the ordering such that the
	// marginal host's bid stays positive. sumY and sumSqrt accumulate
	// sum_S y_j and sum_S sqrt(w_j*y_j). The bid of the *least* attractive
	// admitted host turns negative first, so the prefix test is on the last
	// admitted host. Only sqrt(w*y) is hoisted out of a run: a float sum of n
	// equal addends is not n times the addend, and the test may fail mid-run.
	var sumY, sumSqrt float64
	admitted := 0 // runs, the last of them perhaps cut short
	for k := range runs {
		r := &runs[k]
		h := hosts[r.index]
		sq := math.Sqrt(h.Preference * h.Price)
		m := int32(0)
		for ; m < r.n; m++ {
			sY := sumY + h.Price
			sS := sumSqrt + sq
			c := (budget + sY) / sS
			// Bid of this host under the prefix that ends with it.
			if sq*c-h.Price <= 0 {
				break
			}
			sumY, sumSqrt = sY, sS
		}
		if m > 0 {
			admitted = k + 1
		}
		if m < r.n {
			r.n = m
			break
		}
	}
	if admitted == 0 {
		// Even the single most attractive host would get a non-positive bid,
		// which cannot happen with positive budget: for S={j},
		// x_j = sqrt(w y)*(X+y)/sqrt(w y) - y = X > 0. Guard anyway.
		first := hosts[runs[0].index]
		admitted, runs[0].n = 1, 1
		sumY = first.Price
		sumSqrt = math.Sqrt(first.Preference * first.Price)
	}
	runs = runs[:admitted]

	// The funded runs are re-keyed by bid in place, in admission order —
	// which is also the fold order of total.
	c := (budget + sumY) / sumSqrt
	funded := runs[:0]
	var total float64
	for _, r := range runs {
		h := hosts[r.index]
		x := math.Sqrt(h.Preference*h.Price)*c - h.Price
		if x <= 0 {
			continue
		}
		r.primary = x
		funded = append(funded, r)
		for m := int32(0); m < r.n; m++ {
			total += x
		}
	}
	// Normalize rounding drift so bids sum exactly to the budget.
	if total > 0 && total != budget {
		scale := budget / total
		for i := range funded {
			funded[i].primary *= scale
		}
	}
	return funded, nil
}

// extendsRun reports whether h, the candidate after prev, belongs to prev's
// run.
func extendsRun(prev, h Host) bool {
	return h.Preference == prev.Preference && h.Price == prev.Price && prev.ID < h.ID
}

// sortRuns orders runs, whose members share the run's primary, so that read
// run by run the hosts come by descending primary, then ascending ID. Sorting
// the runs by (primary, first ID) does that unless two runs of one primary
// overlap in ID range — candidates not in ID order, or one ratio from
// different (w, y) at interleaved IDs. Then every host becomes its own run,
// which sorts to that order by definition.
func sortRuns(runs []rankKey, hosts []Host) []rankKey {
	id := func(i int) string { return hosts[i].ID }
	sortRanked(runs, id)
	disjoint := true
	for k := 1; k < len(runs) && disjoint; k++ {
		// A single host ends where it starts, below the start of its successor.
		a, b := runs[k-1], runs[k]
		disjoint = a.n == 1 || a.primary != b.primary || hosts[a.index+a.n-1].ID < hosts[b.index].ID
	}
	if disjoint {
		return runs
	}
	split := make([]rankKey, 0, members(runs))
	for _, r := range runs {
		for h, end := r.span(); h < end; h++ {
			split = append(split, newRankKey(r.primary, hosts[h].ID, h))
		}
	}
	sortRanked(split, id)
	return split
}

// members counts the hosts that runs stand for.
func members(runs []rankKey) int {
	total := 0
	for _, r := range runs {
		total += int(r.n)
	}
	return total
}

// allocations lists the members of funded runs, each run keyed by its
// members' bid, by descending bid, then host ID.
func allocations(hosts []Host, funded []rankKey) []Allocation {
	funded = sortRuns(funded, hosts)
	allocs := make([]Allocation, 0, members(funded))
	for _, r := range funded {
		for h, end := r.span(); h < end; h++ {
			allocs = append(allocs, Allocation{Host: hosts[h], Bid: r.primary})
		}
	}
	return allocs
}

// rankKey is the compact sort key of what is being ranked: a value to order
// by, descending, and an ID as the ascending tie-break. The value is computed
// once per key instead of in every comparison, the sort moves 24-byte keys
// instead of the elements, and the first eight bytes of the ID — compared as
// one big-endian integer — settle almost every tie without touching the
// string. A key stands for one element of the slice being ranked or, inside
// Best Response, for a run of n consecutive ones, ranked by the ID of the
// first. Its two counts are 32-bit so that it stays 24 bytes, a tenth of the
// sort's time at 10 000 keys; a slice of 2^31 candidates would be 80 GB.
type rankKey struct {
	primary float64
	prefix  uint64
	index   int32 // of the first element the key stands for
	n       int32 // how many it stands for
}

// newRankKey keys the single element at index.
func newRankKey(primary float64, id string, index int) rankKey {
	return rankKey{primary: primary, prefix: idPrefix(id), index: int32(index), n: 1}
}

// span returns the half-open index range of the elements k stands for.
func (k rankKey) span() (first, end int) {
	return int(k.index), int(k.index + k.n)
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

// rankOrder returns the comparison that orders keys by descending primary,
// then ascending ID; id returns the full ID of the element at an index and is
// consulted only for two keys with equal primaries and equal prefixes. The
// order is the same total order as comparing (primary, ID) directly.
func rankOrder(id func(index int) string) func(a, b rankKey) int {
	return func(a, b rankKey) int {
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
		return strings.Compare(id(int(a.index)), id(int(b.index)))
	}
}

func sortRanked(keys []rankKey, id func(index int) string) {
	slices.SortFunc(keys, rankOrder(id))
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
		keys[i] = newRankKey(UtilityAt(a.Host, a.Bid), a.Host.ID, i)
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
