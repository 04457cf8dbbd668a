package mechanism

import (
	"math"
	"reflect"
	"testing"

	"tycoongrid/internal/rng"
	"tycoongrid/internal/sla"
)

var testCap = Capacity{MHz: 3000, Reserve: 1e-6}

func TestNewRegistry(t *testing.T) {
	for _, name := range append(Names(), "", "posted") {
		m, err := New(name, Config{})
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if name != "" && name != "posted" && m.Name() != name {
			t.Errorf("New(%q).Name() = %q", name, m.Name())
		}
	}
	if _, err := New("dutch", Config{}); err == nil {
		t.Error("New accepted unknown mechanism name")
	}
	if m, _ := New("", Config{}); m.Name() != Proportional {
		t.Errorf("empty name selected %q, want proportional default", m.Name())
	}
}

func TestProportionalMatchesLegacyRule(t *testing.T) {
	bids := []Bid{
		{Bidder: "a", Rate: 0.3},
		{Bidder: "b", Rate: 0.1},
		{Bidder: "c", Rate: 0.6},
	}
	m, _ := New(Proportional, Config{})
	out := m.Clear(bids, testCap)
	if math.Abs(out.Price-1.0) > 1e-15 {
		t.Errorf("price = %v, want rate sum 1.0", out.Price)
	}
	for i, want := range []float64{0.3, 0.1, 0.6} {
		if got := out.Lines[i].Fraction; math.Abs(got-want) > 1e-15 {
			t.Errorf("line %d fraction = %v, want %v", i, got, want)
		}
		if out.Lines[i].PayRate != bids[i].Rate {
			t.Errorf("line %d pay rate = %v, want pass-through %v", i, out.Lines[i].PayRate, bids[i].Rate)
		}
	}
	// Idle host: reserve floor.
	if out := m.Clear(nil, testCap); out.Price != testCap.Reserve {
		t.Errorf("idle price = %v, want reserve", out.Price)
	}
}

// randomBids draws n bids with unique sorted bidders and positive rates.
func randomBids(src *rng.Source, n int, withValuations bool) []Bid {
	bids := make([]Bid, 0, n)
	for i := 0; i < n; i++ {
		b := Bid{
			Bidder: string(rune('a'+i%26)) + string(rune('a'+i/26)),
			Rate:   src.Uniform(0.001, 2),
		}
		if withValuations {
			v := sla.RandomValuation(src, testCap.MHz)
			b.Valuation = &v
		}
		bids = append(bids, b)
	}
	return bids
}

// utility computes bidder i's true utility under an outcome: true value of
// the received fraction minus the pay rate.
func utility(trueVal sla.Valuation, out Outcome, bidder string, capMHz float64) float64 {
	l, ok := out.Line(bidder)
	if !ok {
		return 0
	}
	return trueVal.ValueRate(l.Fraction*capMHz) - l.PayRate
}

// TestVCGTruthfulness checks the dominant-strategy property over >= 1000
// seeded random profiles: misreporting a scaled valuation never increases a
// bidder's true utility beyond float noise.
func TestVCGTruthfulness(t *testing.T) {
	src := rng.New(rng.DeriveSeed(2006, 1))
	m, _ := New(VCG, Config{})
	profiles := 0
	for trial := 0; profiles < 1000; trial++ {
		n := 2 + src.Intn(5)
		bids := randomBids(src, n, true)
		truthful := m.Clear(bids, testCap)
		for i := range bids {
			trueVal := *bids[i].Valuation
			base := utility(trueVal, truthful, bids[i].Bidder, testCap.MHz)
			for _, scale := range []float64{0, 0.25, 0.5, 0.9, 1.1, 2, 10} {
				lie := trueVal.Scale(scale)
				deviated := make([]Bid, len(bids))
				copy(deviated, bids)
				deviated[i].Valuation = &lie
				devOut := m.Clear(deviated, testCap)
				devUtil := utility(trueVal, devOut, bids[i].Bidder, testCap.MHz)
				if devUtil > base+1e-9 {
					t.Fatalf("profile %d bidder %d: lying with scale %v raised utility %v -> %v",
						trial, i, scale, base, devUtil)
				}
				profiles++
			}
		}
	}
	t.Logf("checked %d deviation profiles", profiles)
}

// TestVCGIndividualRationality: payment never exceeds the reported value of
// the capacity received, and never goes negative, over >= 1000 profiles.
func TestVCGIndividualRationality(t *testing.T) {
	src := rng.New(rng.DeriveSeed(2006, 2))
	m, _ := New(VCG, Config{})
	for trial := 0; trial < 1200; trial++ {
		withVals := trial%2 == 0
		bids := randomBids(src, 1+src.Intn(6), withVals)
		out := m.Clear(bids, testCap)
		for _, b := range bids {
			l, ok := out.Line(b.Bidder)
			if !ok {
				t.Fatalf("trial %d: no line for %q", trial, b.Bidder)
			}
			if l.PayRate < 0 {
				t.Fatalf("trial %d: negative payment %v for %q", trial, l.PayRate, b.Bidder)
			}
			reported := valuationOf(b, testCap.MHz)
			if v := reported.ValueRate(l.Fraction * testCap.MHz); l.PayRate > v+1e-12 {
				t.Fatalf("trial %d: payment %v exceeds reported value %v for %q",
					trial, l.PayRate, v, b.Bidder)
			}
			if l.PayRate > b.Rate*(1+1e-12) && !withVals {
				t.Fatalf("trial %d: payment %v exceeds spend rate %v for rate-only bid %q",
					trial, l.PayRate, b.Rate, b.Bidder)
			}
		}
	}
}

// TestPricesNonNegativeFinite: every mechanism publishes a finite price >=
// the reserve on random inputs, and allocations stay within the host.
func TestPricesNonNegativeFinite(t *testing.T) {
	src := rng.New(rng.DeriveSeed(2006, 3))
	for _, name := range Names() {
		m, _ := New(name, Config{})
		for trial := 0; trial < 400; trial++ {
			bids := randomBids(src, src.Intn(8), trial%3 == 0)
			out := m.Clear(bids, testCap)
			if math.IsNaN(out.Price) || math.IsInf(out.Price, 0) || out.Price < testCap.Reserve {
				t.Fatalf("%s trial %d: price %v out of range", name, trial, out.Price)
			}
			var alloc, pay float64
			for i, l := range out.Lines {
				if i > 0 && out.Lines[i-1].Bidder >= l.Bidder {
					t.Fatalf("%s trial %d: lines not sorted/unique", name, trial)
				}
				if l.Fraction < 0 || l.Fraction > 1 || math.IsNaN(l.Fraction) {
					t.Fatalf("%s trial %d: fraction %v", name, trial, l.Fraction)
				}
				if l.PayRate < 0 || math.IsNaN(l.PayRate) || math.IsInf(l.PayRate, 0) {
					t.Fatalf("%s trial %d: pay rate %v", name, trial, l.PayRate)
				}
				alloc += l.Fraction
				pay += l.PayRate
			}
			if alloc > 1+1e-9 {
				t.Fatalf("%s trial %d: allocated %v of the host", name, trial, alloc)
			}
			_ = pay
		}
	}
}

// TestProportionalBudgetBalance: what bidders pay per second equals the
// published price when the market is competitive (sum of rates >= reserve),
// i.e. proportional share is budget balanced: revenue = price.
func TestProportionalBudgetBalance(t *testing.T) {
	src := rng.New(rng.DeriveSeed(2006, 4))
	m, _ := New(Proportional, Config{})
	for trial := 0; trial < 500; trial++ {
		bids := randomBids(src, 1+src.Intn(9), false)
		out := m.Clear(bids, testCap)
		var revenue, share float64
		for _, l := range out.Lines {
			revenue += l.PayRate
			share += l.Fraction
		}
		if math.Abs(revenue-out.Price) > 1e-12*math.Max(1, out.Price) {
			t.Fatalf("trial %d: revenue %v != price %v", trial, revenue, out.Price)
		}
		if math.Abs(share-1) > 1e-9 {
			t.Fatalf("trial %d: shares sum to %v, want 1", trial, share)
		}
	}
}

// TestPostedPriceAdmissionMonotonicity: at a fixed posted price, raising your
// own rate never shrinks your admitted share, and payment always equals
// price x share (never more than the reported rate).
func TestPostedPriceAdmissionMonotonicity(t *testing.T) {
	src := rng.New(rng.DeriveSeed(2006, 5))
	for trial := 0; trial < 500; trial++ {
		bids := randomBids(src, 2+src.Intn(6), false)
		m, _ := New(PostedPrice, Config{PostedInitialPrice: src.Uniform(0.05, 3)})
		base := m.Quote(bids, testCap)
		i := src.Intn(len(bids))
		raised := make([]Bid, len(bids))
		copy(raised, bids)
		raised[i].Rate *= src.Uniform(1, 4)
		more := m.Quote(raised, testCap)

		bl, _ := base.Line(bids[i].Bidder)
		ml, _ := more.Line(bids[i].Bidder)
		if ml.Fraction+1e-12 < bl.Fraction {
			t.Fatalf("trial %d: raising rate %v->%v shrank share %v->%v",
				trial, bids[i].Rate, raised[i].Rate, bl.Fraction, ml.Fraction)
		}
		for _, out := range []Outcome{base, more} {
			for _, l := range out.Lines {
				if want := out.Price * l.Fraction; math.Abs(l.PayRate-want) > 1e-12 {
					t.Fatalf("trial %d: pay %v != price*share %v", trial, l.PayRate, want)
				}
			}
		}
		if bl.PayRate > bids[i].Rate+1e-12 {
			t.Fatalf("trial %d: posted payment %v exceeds rate %v", trial, bl.PayRate, bids[i].Rate)
		}
	}
}

// TestPostedPriceTatonnement: excess demand raises the posted price, zero
// demand decays it toward the reserve, and the price never leaves
// [reserve, +inf) nor moves more than the bounded step per clear.
func TestPostedPriceTatonnement(t *testing.T) {
	m, _ := New(PostedPrice, Config{PostedInitialPrice: 1})
	hot := []Bid{{Bidder: "a", Rate: 5}, {Bidder: "b", Rate: 5}}
	p0 := m.Clear(hot, testCap).Price
	p1 := m.Clear(hot, testCap).Price
	if !(p1 > p0) {
		t.Errorf("excess demand did not raise price: %v -> %v", p0, p1)
	}
	if p1 > p0*1.5+1e-12 {
		t.Errorf("price step %v -> %v exceeds bound", p0, p1)
	}
	for i := 0; i < 200; i++ {
		m.Clear(nil, testCap)
	}
	if p := m.Clear(nil, testCap).Price; math.Abs(p-testCap.Reserve) > 1e-12 {
		t.Errorf("idle price %v did not decay to reserve %v", p, testCap.Reserve)
	}
}

// TestVCGWelfareOptimal cross-checks the greedy fill against brute force on
// tiny discretized instances: no alternative split of the host achieves
// higher reported welfare.
func TestVCGWelfareOptimal(t *testing.T) {
	src := rng.New(rng.DeriveSeed(2006, 6))
	m, _ := New(VCG, Config{})
	for trial := 0; trial < 100; trial++ {
		bids := randomBids(src, 2, true)
		out := m.Clear(bids, testCap)
		got := 0.0
		for _, b := range bids {
			l, _ := out.Line(b.Bidder)
			got += b.Valuation.ValueRate(l.Fraction * testCap.MHz)
		}
		const steps = 300
		best := 0.0
		for k := 0; k <= steps; k++ {
			qa := testCap.MHz * float64(k) / steps
			w := bids[0].Valuation.ValueRate(qa) + bids[1].Valuation.ValueRate(testCap.MHz-qa)
			if w > best {
				best = w
			}
		}
		if got+1e-6 < best {
			t.Fatalf("trial %d: greedy welfare %v below brute-force %v", trial, got, best)
		}
	}
}

func TestNormalizeDefensive(t *testing.T) {
	messy := []Bid{
		{Bidder: "z", Rate: 1},
		{Bidder: "a", Rate: math.NaN()},
		{Bidder: "a", Rate: 2},
		{Bidder: "a", Rate: 3},
		{Bidder: "", Rate: 4},
		{Bidder: "m", Rate: math.Inf(1)},
		{Bidder: "k", Rate: -1},
	}
	got := normalize(messy)
	if len(got) != 2 || got[0].Bidder != "a" || got[0].Rate != 2 || got[1].Bidder != "z" {
		t.Fatalf("normalize(messy) = %+v", got)
	}
	clean := []Bid{{Bidder: "a", Rate: 1}, {Bidder: "b", Rate: 2}}
	if out := normalize(clean); &out[0] != &clean[0] {
		t.Error("normalize copied a conforming slice; must be identity to preserve fold order")
	}
}

func TestOutcomeLine(t *testing.T) {
	out := Outcome{Lines: []Line{{Bidder: "a"}, {Bidder: "c"}}}
	if _, ok := out.Line("b"); ok {
		t.Error("found line for absent bidder")
	}
	if l, ok := out.Line("c"); !ok || l.Bidder != "c" {
		t.Error("missed line for present bidder")
	}
}

// TestSettledIsAFixedPoint holds every mechanism to what Settled promises:
// from the moment it reports true, a hundred further empty clears publish one
// price and leave every quote as it was. Posted-price, raised by demand, is
// not settled while its price decays, does settle, and settles at the reserve;
// without a reserve to land on it never does.
func TestSettledIsAFixedPoint(t *testing.T) {
	capacity := Capacity{MHz: 2800, Reserve: 0.001}
	book := []Bid{{Bidder: "a", Rate: 0.4}, {Bidder: "b", Rate: 0.1}, {Bidder: "c", Rate: 0.02}}
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			m, err := New(name, Config{})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 5; i++ { // demand: posted-price climbs
				m.Clear(book, capacity)
			}
			if name == PostedPrice && m.Settled(capacity) {
				t.Fatal("posted-price reports settled with its price raised")
			}
			decay := 0
			for ; !m.Settled(capacity); decay++ {
				if decay > 1000 {
					t.Fatal("never settled on an empty book")
				}
				m.Clear(nil, capacity)
			}
			if name == PostedPrice && decay < 5 {
				t.Errorf("posted-price settled after %d empty clears, from a price raised over five", decay)
			}
			quote := m.Quote(book, capacity)
			price := m.Clear(nil, capacity).Price
			if price != capacity.Reserve {
				t.Errorf("settled at price %v, want the reserve %v", price, capacity.Reserve)
			}
			for i := 0; i < 100; i++ {
				if got := m.Clear(nil, capacity).Price; got != price {
					t.Fatalf("empty clear %d after settling published %v, want %v", i, got, price)
				}
				if !m.Settled(capacity) {
					t.Fatalf("unsettled by empty clear %d", i)
				}
			}
			if got := m.Quote(book, capacity); !reflect.DeepEqual(got, quote) {
				t.Errorf("quote moved across settled clears: %+v, was %+v", got, quote)
			}
		})
	}
	free := Capacity{MHz: 2800}
	p, _ := New(PostedPrice, Config{})
	for i := 0; i < 200; i++ {
		p.Clear(nil, free)
		if p.Settled(free) {
			t.Fatalf("posted-price with no reserve settled after %d clears; its price halves for ever", i+1)
		}
	}
}

// TestQuotesWithoutDstAreIndependent: with no dst, every quote's lines are a
// slice of its own, so a caller may hold a truthful quote while it quotes a
// deviation on the same instance (experiment's truth-gain probe does) — the
// instance keeps no buffer the second quote could write the first's lines
// into.
func TestQuotesWithoutDstAreIndependent(t *testing.T) {
	bids := []Bid{{Bidder: "a", Rate: 0.3}, {Bidder: "b", Rate: 0.1}, {Bidder: "c", Rate: 0.6}}
	deviated := []Bid{{Bidder: "a", Rate: 0.9}, {Bidder: "b", Rate: 0.1}, {Bidder: "c", Rate: 0.6}}
	for _, name := range Names() {
		m, _ := New(name, Config{})
		truthful := m.Quote(bids, testCap)
		want := append([]Line(nil), truthful.Lines...)
		if dev := m.Quote(deviated, testCap); reflect.DeepEqual(dev.Lines, want) {
			t.Fatalf("%s: the deviated quote allocates as the truthful one; the test proves nothing", name)
		}
		if !reflect.DeepEqual(truthful.Lines, want) {
			t.Errorf("%s: a second Quote changed the first's lines to %+v, were %+v", name, truthful.Lines, want)
		}
	}
}

// TestQuoteAppendsToDst: the lines go to dst's own backing array, from its
// start, whatever it held; and they equal a quote into a fresh slice.
func TestQuoteAppendsToDst(t *testing.T) {
	bids := []Bid{{Bidder: "a", Rate: 0.3}, {Bidder: "b", Rate: 0.1}, {Bidder: "c", Rate: 0.6}}
	for _, name := range Names() {
		m, _ := New(name, Config{})
		dst := make([]Line, 5, 8)
		for i := range dst {
			dst[i] = Line{Bidder: "stale", Fraction: 1, PayRate: 1}
		}
		got := m.Quote(bids, testCap, dst...)
		if want := m.Quote(bids, testCap); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: into dst %+v, into a fresh slice %+v", name, got, want)
		}
		if len(got.Lines) == 0 || &got.Lines[0] != &dst[0] {
			t.Errorf("%s: lines not appended to dst's backing array", name)
		}
	}
}

// TestProportionalReusedDstAllocatesNothing: the market's clear of a busy
// host, a proportional Clear into the buffer the last one returned, touches
// no heap.
func TestProportionalReusedDstAllocatesNothing(t *testing.T) {
	bids := make([]Bid, 8)
	for i := range bids {
		bids[i] = Bid{Bidder: string(rune('a' + i)), Rate: 0.1 * float64(i+1)}
	}
	m, _ := New(Proportional, Config{})
	dst := m.Clear(bids, testCap).Lines
	allocs := testing.AllocsPerRun(100, func() { dst = m.Clear(bids, testCap, dst...).Lines })
	if allocs != 0 {
		t.Errorf("proportional Clear into a reused dst: %v allocations, want 0", allocs)
	}
	if len(dst) != len(bids) {
		t.Errorf("%d lines for %d bids", len(dst), len(bids))
	}
}
