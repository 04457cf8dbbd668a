package core

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"tycoongrid/internal/rng"
)

// oracleBestResponse is BestResponse as it stood before the compact sort
// keys: whole Host structs sorted with sort.Slice, the ratio recomputed in
// every comparison, string tie-breaks throughout. Kept as the reference the
// key-sorted implementation is differentially tested against.
func oracleBestResponse(budget float64, hosts []Host) []Allocation {
	order := make([]Host, len(hosts))
	copy(order, hosts)
	sort.Slice(order, func(i, j int) bool {
		ri := order[i].Preference / order[i].Price
		rj := order[j].Preference / order[j].Price
		if ri != rj {
			return ri > rj
		}
		return order[i].ID < order[j].ID
	})
	var sumY, sumSqrt float64
	support := 0
	for k := 0; k < len(order); k++ {
		h := order[k]
		sY := sumY + h.Price
		sS := sumSqrt + math.Sqrt(h.Preference*h.Price)
		c := (budget + sY) / sS
		if math.Sqrt(h.Preference*h.Price)*c-h.Price <= 0 {
			break
		}
		sumY, sumSqrt = sY, sS
		support = k + 1
	}
	if support == 0 {
		support = 1
		sumY = order[0].Price
		sumSqrt = math.Sqrt(order[0].Preference * order[0].Price)
	}
	c := (budget + sumY) / sumSqrt
	allocs := make([]Allocation, 0, support)
	var total float64
	for k := 0; k < support; k++ {
		h := order[k]
		x := math.Sqrt(h.Preference*h.Price)*c - h.Price
		if x <= 0 {
			continue
		}
		allocs = append(allocs, Allocation{Host: h, Bid: x})
		total += x
	}
	if total > 0 && total != budget {
		scale := budget / total
		for i := range allocs {
			allocs[i].Bid *= scale
		}
	}
	sort.Slice(allocs, func(i, j int) bool {
		if allocs[i].Bid != allocs[j].Bid {
			return allocs[i].Bid > allocs[j].Bid
		}
		return allocs[i].Host.ID < allocs[j].Host.ID
	})
	return allocs
}

// oracleTopNByUtility is the pre-key TopNByUtility.
func oracleTopNByUtility(allocs []Allocation, n int) []Allocation {
	if n <= 0 || n >= len(allocs) {
		return allocs
	}
	ranked := make([]Allocation, len(allocs))
	copy(ranked, allocs)
	sort.Slice(ranked, func(i, j int) bool {
		ui := UtilityAt(ranked[i].Host, ranked[i].Bid)
		uj := UtilityAt(ranked[j].Host, ranked[j].Bid)
		if ui != uj {
			return ui > uj
		}
		return ranked[i].Host.ID < ranked[j].Host.ID
	})
	return ranked[:n]
}

// rankInstance draws one candidate set. The shapes rotate through the cases
// the sort keys must get right: distinct ratios, all-equal ratios (order
// decided by ID alone), a handful of price levels (long runs of ties), IDs
// that share their first eight bytes (the string fallback), IDs of mixed
// lengths where one is a prefix of another (zero padding), and the grid's
// own "h%02d" naming.
func rankInstance(src *rng.Source, trial, n int) (float64, []Host) {
	hosts := make([]Host, n)
	for i := range hosts {
		var id string
		switch trial % 5 {
		case 0:
			id = fmt.Sprintf("h%02d", i)
		case 1:
			id = fmt.Sprintf("cluster-node-%d", i) // 13 shared leading bytes
		case 2:
			id = "h"[:i%2] + fmt.Sprintf("%d", i) // "7", "h8": lengths 1..6
		case 3:
			id = fmt.Sprintf("rack%04d", i/3) + "abc"[:i%3] // "rack0001", "rack0001a", "rack0001ab"
		default:
			id = fmt.Sprintf("%x-host", i*2654435761%4093*1_000_003+i)
		}
		h := Host{ID: id, Preference: src.Uniform(1000, 3600), Price: src.Uniform(0.0003, 2)}
		switch trial % 3 {
		case 1: // every ratio equal
			h.Preference, h.Price = 2800, 1.0/3600
		case 2: // few distinct levels
			h.Preference = 2800
			h.Price = 1.0/3600 + 1e-7*float64(src.Intn(4))
		}
		hosts[i] = h
	}
	// Present the candidates in a scrambled order, not the ID order they were
	// generated in.
	shuffle(src, len(hosts), func(i, j int) { hosts[i], hosts[j] = hosts[j], hosts[i] })
	return src.Uniform(0.001, 50), hosts
}

func sameAllocations(t *testing.T, what string, got, want []Allocation) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d allocations, oracle %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i].Host != want[i].Host || math.Float64bits(got[i].Bid) != math.Float64bits(want[i].Bid) {
			t.Fatalf("%s: allocation %d = %+v, oracle %+v", what, i, got[i], want[i])
		}
	}
}

// TestRankingMatchesSortSliceOracle is the differential test of the compact
// sort keys: identical order and bit-identical bids against the sort.Slice
// implementations, over 1 200 seeded instances from 1 host to 10 000.
func TestRankingMatchesSortSliceOracle(t *testing.T) {
	src := rng.New(13)
	sizes := []int{1, 2, 3, 8, 30, 97, 300}
	for trial := 0; trial < 1200; trial++ {
		n := sizes[trial%len(sizes)]
		if trial >= 1194 {
			n = 10000
		}
		budget, hosts := rankInstance(src, trial, n)
		input := append([]Host(nil), hosts...)

		got, err := BestResponse(budget, hosts)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		what := fmt.Sprintf("trial %d (%d hosts)", trial, n)
		sameAllocations(t, what+" BestResponse", got, oracleBestResponse(budget, hosts))
		for i := range input {
			if hosts[i] != input[i] {
				t.Fatalf("%s: BestResponse reordered its input at %d", what, i)
			}
		}
		for _, keep := range []int{1, 8, len(got) / 2, len(got) - 1} {
			sameAllocations(t, fmt.Sprintf("%s TopNByUtility(%d)", what, keep),
				TopNByUtility(got, keep), oracleTopNByUtility(got, keep))
		}
	}
}

// TestIDPrefixOrdersLikeStrings checks the property the integer tie-break
// rests on: whenever two prefixes differ they order as the ids do.
func TestIDPrefixOrdersLikeStrings(t *testing.T) {
	ids := []string{"", "a", "a\x00", "a\x00b", "ab", "abcdefg", "abcdefgh", "abcdefgh\x00", "abcdefghi",
		"abcdefgi", "b", "h1", "h10", "h100", "h2", "\xff", "\xff\xff\xff\xff\xff\xff\xff\xff\xff"}
	for _, a := range ids {
		for _, b := range ids {
			pa, pb := idPrefix(a), idPrefix(b)
			if pa != pb && (pa < pb) != (a < b) {
				t.Errorf("idPrefix(%q)=%x vs idPrefix(%q)=%x disagrees with string order", a, pa, b, pb)
			}
			if a == b && pa != pb {
				t.Errorf("idPrefix not a function of the id: %q", a)
			}
		}
	}
}

// wideCandidates is a submission's view of a 10 000-host grid: almost every
// host idle at the reserve price, in ID order.
func wideCandidates() []Host {
	hosts := make([]Host, 10000)
	for i := range hosts {
		hosts[i] = Host{ID: fmt.Sprintf("h%02d", i), Preference: 5600, Price: 1.0/3600 + 1e-7*float64(i%97)}
	}
	sort.Slice(hosts, func(i, j int) bool { return hosts[i].ID < hosts[j].ID })
	return hosts
}

// TestBestResponseAllocationBound gates the allocation count at 10 000 hosts:
// one key slice and one result slice, with slack for a runtime that splits
// either — not one allocation per host, per comparison or per sort.
func TestBestResponseAllocationBound(t *testing.T) {
	hosts := wideCandidates()
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := BestResponse(50.0/7200, hosts); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 6 {
		t.Errorf("BestResponse over %d hosts: %v allocations, want <= 6", len(hosts), allocs)
	}
}

func BenchmarkBestResponse10k(b *testing.B) {
	hosts := wideCandidates()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BestResponse(50.0/7200, hosts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTopNByUtility10k(b *testing.B) {
	allocs, err := BestResponse(50.0/7200, wideCandidates())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TopNByUtility(allocs, 8)
	}
}
