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

// Run is a stretch of interchangeable candidates: hosts that share one
// preference and one price, listed by strictly ascending ID. Tycoon prices an
// idle host at its reserve, so on a wide grid almost every candidate belongs
// to one of a few long runs, and ranking runs instead of hosts is what keeps a
// submission from sorting 10 000 keys.
type Run struct {
	IDs        []string // strictly ascending; read, never written
	Preference float64
	Price      float64
}

// host returns the run's m-th member as a candidate.
func (r Run) host(m int) Host { return Host{ID: r.IDs[m], Preference: r.Preference, Price: r.Price} }

// BestResponse computes the optimal bid distribution of budget X across
// hosts. Hosts that receive a zero bid are omitted from the result. The
// returned allocations are sorted by descending bid, then host ID.
func BestResponse(budget float64, hosts []Host) ([]Allocation, error) {
	return BestResponseCapped(budget, hosts, 0)
}

// BestResponseCapped is Best Response for a bidder that can use at most n
// hosts (the XRSL count attribute): solve over every candidate, keep the n
// funded hosts with the largest utility contribution, and solve again over
// those. When more than n hosts are funded it returns what
//
//	Rebalance(budget, TopNByUtility(BestResponse(budget, hosts), n))
//
// returns, and otherwise (or when n <= 0) what BestResponse returns. It finds
// the runs among neighbouring hosts and solves them with BestResponseRuns.
func BestResponseCapped(budget float64, hosts []Host, n int) ([]Allocation, error) {
	return BestResponseRuns(budget, runsOf(hosts), n)
}

// BestResponseRuns is BestResponseCapped over candidates given as runs: every
// member of a run is one candidate host with the run's preference and price.
// The result is BestResponseCapped's over the members, listed one Host each in
// any order, bit for bit: the solver admits members in (w/y desc, ID asc)
// order with one addend each, so only the set of candidates matters. Nothing
// is done per member but those sums and the funded hosts' allocations, so a
// caller that knows its runs — a broker that knows which hosts sleep — pays
// neither for finding them nor for their length.
//
// The caller keeps the run contract: IDs ascend strictly within a run and no
// ID is in two runs. Runs may come in any order, and their ID ranges may
// interleave.
func BestResponseRuns(budget float64, runs []Run, n int) ([]Allocation, error) {
	funded, runs, err := solve(budget, runs)
	if err != nil {
		return nil, err
	}
	if n <= 0 || members(funded) <= n {
		return allocations(runs, funded), nil
	}
	// Bounded insertion into the n best by (utility desc, ID asc). The members
	// of a run share one utility and come in ID order, so once one of them is
	// refused the rest would be too. cand lists every member ranked as a run of
	// its own, so that a key's index names its host.
	cand := make([]Run, 0, len(funded)+n)
	before := rankOrder(func(i int) string { return cand[i].IDs[0] })
	top := make([]rankKey, 0, n)
	for _, r := range funded {
		run := runs[r.index]
		u := UtilityAt(run.host(0), r.primary)
		for m := 0; m < int(r.n); m++ {
			cand = append(cand, Run{IDs: run.IDs[m : m+1], Preference: run.Preference, Price: run.Price})
			key := newRankKey(u, run.IDs[m], len(cand)-1)
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
	keep := make([]Run, len(top))
	for i, key := range top {
		keep[i] = cand[key.index]
	}
	return BestResponseRuns(budget, keep, 0)
}

// runsOf splits hosts, in their order, into maximal runs of neighbours with
// equal preference and price and ascending IDs. The runs' IDs share one slice.
func runsOf(hosts []Host) []Run {
	ids := make([]string, len(hosts))
	// starts has a bit per candidate, set where a run starts.
	starts := make([]uint64, (len(hosts)+63)/64)
	nRuns := 0
	for i, h := range hosts {
		ids[i] = h.ID
		if i == 0 || !extendsRun(hosts[i-1], h) {
			starts[i/64] |= 1 << (i % 64)
			nRuns++
		}
	}
	runs := make([]Run, 0, nRuns)
	for i, h := range hosts {
		if starts[i/64]>>(i%64)&1 == 0 {
			r := &runs[len(runs)-1]
			r.IDs = r.IDs[:len(r.IDs)+1]
			continue
		}
		runs = append(runs, Run{IDs: ids[i : i+1], Preference: h.Preference, Price: h.Price})
	}
	return runs
}

// extendsRun reports whether h, the candidate after prev, belongs to prev's
// run.
func extendsRun(prev, h Host) bool {
	return h.Preference == prev.Preference && h.Price == prev.Price && prev.ID < h.ID
}

// solve is the water-fill behind every entry point. It returns the funded
// runs in admission order, each keyed by the bid every one of its members
// gets, and the runs the keys index — runs itself, or its members one run
// each when ranking had to split them (see sortRuns). The result is the
// per-host result bit for bit: the sums below still take one addend per
// member, in admission order.
func solve(budget float64, runs []Run) ([]rankKey, []Run, error) {
	if budget <= 0 || math.IsNaN(budget) || math.IsInf(budget, 0) {
		return nil, nil, fmt.Errorf("%w: %v", ErrBadBudget, budget)
	}
	if len(runs) == 0 {
		return nil, nil, ErrNoHosts
	}
	// Admit hosts in order of decreasing marginal utility at x=0, which is
	// w_j/y_j; ties broken by ID for determinism. Runs come in input order and
	// a run's first member is its earliest host, so an error names the first
	// bad host in input order.
	keys := make([]rankKey, len(runs))
	for i, r := range runs {
		if len(r.IDs) == 0 {
			return nil, nil, fmt.Errorf("%w: run %d lists no host", ErrBadHost, i)
		}
		if r.Preference <= 0 || r.Price <= 0 ||
			math.IsNaN(r.Preference) || math.IsNaN(r.Price) ||
			math.IsInf(r.Preference, 0) || math.IsInf(r.Price, 0) {
			return nil, nil, fmt.Errorf("%w: host %q w=%v y=%v", ErrBadHost, r.IDs[0], r.Preference, r.Price)
		}
		keys[i] = rankKey{primary: r.Preference / r.Price, prefix: idPrefix(r.IDs[0]), index: int32(i), n: int32(len(r.IDs))}
	}
	keys, runs = sortRuns(keys, runs)

	// Water-filling: find the largest prefix S of the ordering such that the
	// marginal host's bid stays positive. sumY and sumSqrt accumulate
	// sum_S y_j and sum_S sqrt(w_j*y_j). The bid of the *least* attractive
	// admitted host turns negative first, so the prefix test is on the last
	// admitted host. Only sqrt(w*y) is hoisted out of a run: a float sum of n
	// equal addends is not n times the addend, and the test may fail mid-run.
	var sumY, sumSqrt float64
	admitted := 0 // runs, the last of them perhaps cut short
	for k := range keys {
		r := &keys[k]
		run := runs[r.index]
		sq := math.Sqrt(run.Preference * run.Price)
		m := int32(0)
		for ; m < r.n; m++ {
			sY := sumY + run.Price
			sS := sumSqrt + sq
			c := (budget + sY) / sS
			// Bid of this host under the prefix that ends with it.
			if sq*c-run.Price <= 0 {
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
		first := runs[keys[0].index]
		admitted, keys[0].n = 1, 1
		sumY = first.Price
		sumSqrt = math.Sqrt(first.Preference * first.Price)
	}
	keys = keys[:admitted]

	// The funded runs are re-keyed by bid in place, in admission order —
	// which is also the fold order of total.
	c := (budget + sumY) / sumSqrt
	funded := keys[:0]
	var total float64
	for _, r := range keys {
		run := runs[r.index]
		x := math.Sqrt(run.Preference*run.Price)*c - run.Price
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
	return funded, runs, nil
}

// sortRuns orders keys, each standing for the first n members of a run and
// sharing the run's primary, so that read key by key the hosts come by
// descending primary, then ascending ID, and returns them with the runs they
// index. Sorting the keys by (primary, first ID) does that unless two keys of
// one primary overlap in ID range — runs listed out of ID order, or one ratio
// from different (w, y) at interleaved IDs. Then every member becomes a run of
// its own, which sorts to that order by definition.
func sortRuns(keys []rankKey, runs []Run) ([]rankKey, []Run) {
	sortRanked(keys, func(i int) string { return runs[i].IDs[0] })
	disjoint := true
	for k := 1; k < len(keys) && disjoint; k++ {
		// A single host ends where it starts, below the start of its successor.
		a, b := keys[k-1], keys[k]
		disjoint = a.n == 1 || a.primary != b.primary || runs[a.index].IDs[a.n-1] < runs[b.index].IDs[0]
	}
	if disjoint {
		return keys, runs
	}
	singles := make([]Run, 0, members(keys))
	split := make([]rankKey, 0, cap(singles))
	for _, k := range keys {
		r := runs[k.index]
		for m := 0; m < int(k.n); m++ {
			singles = append(singles, Run{IDs: r.IDs[m : m+1], Preference: r.Preference, Price: r.Price})
			split = append(split, newRankKey(k.primary, r.IDs[m], len(singles)-1))
		}
	}
	sortRanked(split, func(i int) string { return singles[i].IDs[0] })
	return split, singles
}

// members counts the hosts that keys stand for.
func members(keys []rankKey) int {
	total := 0
	for _, k := range keys {
		total += int(k.n)
	}
	return total
}

// allocations lists the members of funded runs, each key holding its
// members' bid, by descending bid, then host ID.
func allocations(runs []Run, funded []rankKey) []Allocation {
	funded, runs = sortRuns(funded, runs)
	allocs := make([]Allocation, 0, members(funded))
	for _, k := range funded {
		r := runs[k.index]
		for m := 0; m < int(k.n); m++ {
			allocs = append(allocs, Allocation{Host: r.host(m), Bid: k.primary})
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
// Best Response, for the first n members of a run, ranked by the ID of the
// first. Its two counts are 32-bit so that it stays 24 bytes, a tenth of the
// sort's time at 10 000 keys; a slice of 2^31 candidates would be 80 GB.
type rankKey struct {
	primary float64
	prefix  uint64
	index   int32 // of the element, or of the run, the key stands for
	n       int32 // how many members it stands for
}

// newRankKey keys the single element at index.
func newRankKey(primary float64, id string, index int) rankKey {
	return rankKey{primary: primary, prefix: idPrefix(id), index: int32(index), n: 1}
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
