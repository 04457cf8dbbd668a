package core

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"tycoongrid/internal/rng"
)

// shuffle is a Fisher-Yates shuffle drawn from src: the scrambled order the
// differential tests present candidates in.
func shuffle(src *rng.Source, n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, src.Intn(i+1))
	}
}

// perm is math/rand's Perm drawn from src, the same permutation for the
// same seed.
func perm(src *rng.Source, n int) []int {
	m := make([]int, n)
	for i := range m {
		j := src.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
	return m
}

// oracleCapped is what a submission computed before BestResponseCapped
// existed, composed from the two sort.Slice oracles: Best Response over every
// candidate and, when more than n hosts are funded, Best Response again over
// the n of them with the largest utility.
func oracleCapped(budget float64, hosts []Host, n int) []Allocation {
	allocs := oracleBestResponse(budget, hosts)
	if n <= 0 || len(allocs) <= n {
		return allocs
	}
	top := oracleTopNByUtility(allocs, n)
	keep := make([]Host, len(top))
	for i, a := range top {
		keep[i] = a.Host
	}
	return oracleBestResponse(budget, keep)
}

const (
	idleW     = 5600.0
	idlePrice = 1.0 / 3600 // the reserve a wide grid's idle hosts are priced at
)

// runShapes are candidate lists in which neighbours are interchangeable, the
// inputs solve folds as runs. Each returns n hosts in ID order.
var runShapes = []struct {
	name string
	host func(src *rng.Source, i int) (w, y float64)
}{
	// One run.
	{"identical", func(*rng.Source, int) (float64, float64) { return idleW, idlePrice }},
	// The grid-wide shape: one long idle run split, at scattered positions,
	// by booked hosts that each have a price of their own.
	{"wide", func(src *rng.Source, i int) (float64, float64) {
		if src.Intn(12) == 0 {
			return idleW, idlePrice + src.Uniform(1e-5, 1e-2)
		}
		return idleW, idlePrice
	}},
	// The same with the booked hosts on three price levels, so that booked
	// neighbours form short runs too and many runs tie on the ratio.
	{"wide-levels", func(src *rng.Source, i int) (float64, float64) {
		if src.Intn(4) == 0 {
			return idleW, idlePrice * float64(2+src.Intn(3))
		}
		return idleW, idlePrice
	}},
	// One ratio from two different (w, y), host by host: 5600/(2r) == 2800/r
	// exactly, but the two kinds differ in sqrt(w*y), bid and utility.
	{"interleaved", func(_ *rng.Source, i int) (float64, float64) {
		if i%2 == 1 {
			return 2 * 2800, 2 * idlePrice
		}
		return 2800, idlePrice
	}},
	// The same in blocks of three: runs of one ratio, disjoint in ID range.
	{"interleaved-blocks", func(_ *rng.Source, i int) (float64, float64) {
		if i/3%2 == 1 {
			return 2 * 2800, 2 * idlePrice
		}
		return 2800, idlePrice
	}},
}

// runOrders present a shape's hosts to the optimizer.
var runOrders = []struct {
	name    string
	arrange func(src *rng.Source, hosts []Host)
}{
	{"id-order", func(*rng.Source, []Host) {}},
	{"shuffled", func(src *rng.Source, hosts []Host) {
		shuffle(src, len(hosts), func(i, j int) { hosts[i], hosts[j] = hosts[j], hosts[i] })
	}},
	// Even positions first, then odd ones, each ascending: long ascending
	// stretches whose ID ranges overlap completely. With "interleaved" that is
	// two runs of one ratio, which must not be folded as two blocks.
	{"evens-then-odds", func(_ *rng.Source, hosts []Host) {
		all := append([]Host(nil), hosts...)
		half := (len(all) + 1) / 2
		for i, h := range all {
			if i%2 == 0 {
				hosts[i/2] = h
			} else {
				hosts[half+i/2] = h
			}
		}
	}},
}

func shapedHosts(src *rng.Source, shape, order, n int) []Host {
	hosts := make([]Host, n)
	for i := range hosts {
		w, y := runShapes[shape].host(src, i)
		hosts[i] = Host{ID: fmt.Sprintf("h%05d", i), Preference: w, Price: y}
	}
	runOrders[order].arrange(src, hosts)
	return hosts
}

// checkAgainstOracles is the differential check every run test and the fuzz
// target share: BestResponse and BestResponseCapped equal the sort.Slice
// oracles bit for bit, bids sum to the budget, and the input is left as it
// was.
func checkAgainstOracles(t *testing.T, what string, budget float64, hosts []Host, caps []int) {
	t.Helper()
	input := append([]Host(nil), hosts...)
	want := oracleBestResponse(budget, hosts)
	got, err := BestResponse(budget, hosts)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	sameAllocations(t, what+" BestResponse", got, want)
	for _, n := range append(caps, len(want), len(want)+1) {
		got, err := BestResponseCapped(budget, hosts, n)
		if err != nil {
			t.Fatalf("%s cap %d: %v", what, n, err)
		}
		sameAllocations(t, fmt.Sprintf("%s BestResponseCapped(%d)", what, n), got, oracleCapped(budget, hosts, n))
		var sum float64
		for _, a := range got {
			sum += a.Bid
		}
		if math.Abs(sum-budget) > 1e-9*budget {
			t.Fatalf("%s cap %d: bids sum to %v, budget %v", what, n, sum, budget)
		}
	}
	for i := range input {
		if hosts[i] != input[i] {
			t.Fatalf("%s: input reordered at %d", what, i)
		}
	}
}

// TestRunsMatchPerHostOracles is the differential test of folding
// interchangeable candidates as runs: every shape in every order, from a
// handful of hosts to 10 000, at budgets from one that funds only the idle
// hosts to one that funds everything.
func TestRunsMatchPerHostOracles(t *testing.T) {
	src := rng.New(20)
	sizes := []int{1, 2, 7, 40, 300, 1000}
	budgets := []float64{50.0 / 7200, 1e-4, 0.3, 40}
	trial := 0
	for shape := range runShapes {
		for order := range runOrders {
			ns := sizes
			if order == 0 {
				ns = append(ns[:len(ns):len(ns)], 10000) // once per shape: the oracle is slow
			}
			for _, n := range ns {
				trial++
				hosts := shapedHosts(src, shape, order, n)
				budget := budgets[trial%len(budgets)] * src.Uniform(0.5, 2)
				what := fmt.Sprintf("%s/%s/%d hosts", runShapes[shape].name, runOrders[order].name, n)
				checkAgainstOracles(t, what, budget, hosts, []int{0, 1, 8, 50})
			}
		}
	}
	// The scrambled, all-distinct and shared-prefix instances of the key test
	// go through the capped call too.
	for trial := 0; trial < 300; trial++ {
		budget, hosts := rankInstance(src, trial, sizes[trial%len(sizes)])
		checkAgainstOracles(t, fmt.Sprintf("rank instance %d", trial), budget, hosts, []int{0, 1, 8, 50})
	}
}

// cutRuns hands hosts, which are in ID order, over as a caller that knows its
// runs does: runs of equal (w, y) cut at random places (a broker's stretch of
// sleeping hosts ends wherever an awake one sits), in shuffled order, and now
// and then one split into its even and odd members — two runs whose ID ranges
// interleave.
func cutRuns(src *rng.Source, hosts []Host) []Run {
	var runs []Run
	for i := 0; i < len(hosts); {
		end := i + 1
		for end < len(hosts) && extendsRun(hosts[end-1], hosts[end]) && src.Intn(40) != 0 {
			end++
		}
		ids := make([]string, 0, end-i)
		for _, h := range hosts[i:end] {
			ids = append(ids, h.ID)
		}
		w, y := hosts[i].Preference, hosts[i].Price
		if len(ids) > 1 && src.Intn(3) == 0 {
			var even, odd []string
			for k, id := range ids {
				if k%2 == 0 {
					even = append(even, id)
				} else {
					odd = append(odd, id)
				}
			}
			runs = append(runs, Run{IDs: even, Preference: w, Price: y}, Run{IDs: odd, Preference: w, Price: y})
		} else {
			runs = append(runs, Run{IDs: ids, Preference: w, Price: y})
		}
		i = end
	}
	shuffle(src, len(runs), func(i, j int) { runs[i], runs[j] = runs[j], runs[i] })
	return runs
}

// TestRunsEntryMatchesPerHostOracles: BestResponseRuns over runs a caller
// made equals the per-host oracles bit for bit, however the runs are cut,
// ordered or interleaved.
func TestRunsEntryMatchesPerHostOracles(t *testing.T) {
	src := rng.New(31)
	budgets := []float64{50.0 / 7200, 1e-4, 0.3, 40}
	trial := 0
	for shape := range runShapes {
		for _, n := range []int{1, 2, 7, 40, 300, 3000} {
			trial++
			hosts := shapedHosts(src, shape, 0, n)
			runs := cutRuns(src, hosts)
			budget := budgets[trial%len(budgets)] * src.Uniform(0.5, 2)
			for _, keep := range []int{0, 1, 8, 50} {
				what := fmt.Sprintf("%s/%d hosts/%d runs/cap %d", runShapes[shape].name, n, len(runs), keep)
				got, err := BestResponseRuns(budget, runs, keep)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				sameAllocations(t, what, got, oracleCapped(budget, hosts, keep))
			}
		}
	}
	if _, err := BestResponseRuns(1, []Run{{IDs: nil, Preference: 1, Price: 1}}, 0); !errors.Is(err, ErrBadHost) {
		t.Errorf("empty run: %v, want ErrBadHost", err)
	}
}

// TestSupportEndsAtRunBoundaryAndCapCutsARun pins the two places a run can
// be cut. The budget funds every idle host and no booked one, so the support
// ends exactly where the last idle run does; a cap of 8 then keeps the first
// run of 5 and only 3 of the second.
func TestSupportEndsAtRunBoundaryAndCapCutsARun(t *testing.T) {
	var hosts []Host
	for i := 0; i < 120; i++ {
		h := Host{ID: fmt.Sprintf("h%03d", i), Preference: idleW, Price: idlePrice}
		if i%6 == 5 {
			h.Price = 1 // booked, 3 600 times the reserve
		}
		hosts = append(hosts, h)
	}
	const budget = 1e-3
	all, err := BestResponse(budget, hosts)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 100 {
		t.Fatalf("funded %d hosts, want the 100 idle ones", len(all))
	}
	for _, a := range all {
		if a.Host.Price != idlePrice {
			t.Fatalf("booked host %s funded", a.Host.ID)
		}
	}
	checkAgainstOracles(t, "run boundary", budget, hosts, []int{0, 1, 8, 50})

	capped, err := BestResponseCapped(budget, hosts, 8)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, a := range capped {
		ids = append(ids, a.Host.ID)
	}
	if got, want := strings.Join(ids, " "), "h000 h001 h002 h003 h004 h006 h007 h008"; got != want {
		t.Errorf("capped to %s, want %s", got, want)
	}
}

// TestValidationNamesFirstBadHostInInputOrder: run detection shares its pass
// with validation and must not change which host an error names.
func TestValidationNamesFirstBadHostInInputOrder(t *testing.T) {
	hosts := shapedHosts(rng.New(1), 1, 0, 200)
	hosts[150].Price = math.NaN()
	hosts[70].Preference = -1
	hosts[71].Price = 0
	for name, call := range map[string]func() ([]Allocation, error){
		"BestResponse":       func() ([]Allocation, error) { return BestResponse(1, hosts) },
		"BestResponseCapped": func() ([]Allocation, error) { return BestResponseCapped(1, hosts, 8) },
	} {
		_, err := call()
		if !errors.Is(err, ErrBadHost) || !strings.Contains(err.Error(), `"h00070"`) {
			t.Errorf("%s: error %v, want ErrBadHost naming h00070", name, err)
		}
	}
	if _, err := BestResponseCapped(0, hosts, 8); !errors.Is(err, ErrBadBudget) {
		t.Errorf("zero budget: %v", err)
	}
	if _, err := BestResponseCapped(1, nil, 8); !errors.Is(err, ErrNoHosts) {
		t.Errorf("no hosts: %v", err)
	}
}

// idleRunCandidates is what a grid-wide submission sees: 10 000 hosts in ID
// order, 9 200 idle at the reserve and 800 booked, each at a price of its own.
func idleRunCandidates() []Host {
	src := rng.New(7)
	hosts := make([]Host, 10000)
	for i := range hosts {
		hosts[i] = Host{ID: fmt.Sprintf("h%05d", i), Preference: idleW, Price: idlePrice}
	}
	for _, i := range perm(src, len(hosts))[:800] {
		hosts[i].Price += src.Uniform(1e-5, 1e-2)
	}
	return hosts
}

func BenchmarkBestResponse10kIdleRun(b *testing.B) {
	hosts := idleRunCandidates()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BestResponse(50.0/7200, hosts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBestResponseCapped10kIdleRun(b *testing.B) {
	hosts := idleRunCandidates()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BestResponseCapped(50.0/7200, hosts, 8); err != nil {
			b.Fatal(err)
		}
	}
}
