package strategy

import (
	"errors"
	"math"
	"testing"
	"time"

	"tycoongrid/internal/core"
	"tycoongrid/internal/predict"
)

func TestRegistry(t *testing.T) {
	want := []string{CurrentPrice, Portfolio, PredictedMean, PredictedQuantile}
	names := Names()
	if len(names) != len(want) {
		t.Fatalf("names = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("names = %v, want %v", names, want)
		}
	}
	for _, n := range names {
		s, err := New(n, Config{})
		if err != nil {
			t.Fatalf("%s: %v", n, err)
		}
		if s.Name() != n {
			t.Errorf("strategy %q reports name %q", n, s.Name())
		}
		if _, err := s.Pick(nil); !errors.Is(err, ErrNoCandidates) {
			t.Errorf("%s: empty pick err = %v", n, err)
		}
	}
	if _, err := New("oracle", Config{}); !errors.Is(err, ErrUnknownStrategy) {
		t.Errorf("unknown strategy err = %v", err)
	}
}

func TestRegisterGuards(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	mustPanic("empty", func() { Register("", func(Config) Strategy { return nil }) })
	mustPanic("duplicate", func() { Register(CurrentPrice, func(Config) Strategy { return nil }) })
}

func TestCurrentPricePicksCheapest(t *testing.T) {
	s, _ := New(CurrentPrice, Config{})
	cands := []Candidate{
		{ID: "a", CurrentPrice: 3},
		{ID: "b", CurrentPrice: 1},
		{ID: "c", CurrentPrice: 2},
	}
	p, err := s.Pick(cands)
	if err != nil {
		t.Fatal(err)
	}
	if p.Index != 1 {
		t.Errorf("picked %d, want 1", p.Index)
	}
	if p.Predicted != 1 {
		t.Errorf("predicted = %v, want the current price 1", p.Predicted)
	}
}

func TestCurrentPriceRoundRobinsTies(t *testing.T) {
	s, _ := New(CurrentPrice, Config{})
	cands := []Candidate{
		{ID: "a", CurrentPrice: 1},
		{ID: "b", CurrentPrice: 1},
		{ID: "c", CurrentPrice: 1},
	}
	var got []int
	for i := 0; i < 6; i++ {
		p, err := s.Pick(cands)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, p.Index)
	}
	want := []int{0, 1, 2, 0, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tie sequence = %v, want %v", got, want)
		}
	}
	// The rotation only covers the tied subset.
	cands[2].CurrentPrice = 5
	p, _ := s.Pick(cands)
	if p.Index == 2 {
		t.Error("round-robin escaped the tied set")
	}
}

func constHist(v float64, n int) []float64 {
	h := make([]float64, n)
	for i := range h {
		h[i] = v
	}
	return h
}

// forecastOf is a stub forecast handle: the strategies below are tested on
// what a model says, not on any model.
func forecastOf(mean, sigma float64) ForecastFunc {
	return func(time.Duration) (predict.Forecast, error) {
		return predict.Forecast{Mean: mean, Sigma: sigma}, nil
	}
}

func TestPredictedMeanSeesThroughTransientTrough(t *testing.T) {
	// Partition a's price is in a momentary trough of a high-priced regime;
	// partition b is steady at a mid price. Current price prefers a; the
	// forecast knows a's price will be higher and prefers b.
	cands := []Candidate{
		{ID: "bursty", CurrentPrice: 0.5, Forecast: forecastOf(4, 2)},
		{ID: "steady", CurrentPrice: 2, Forecast: forecastOf(2, 0)},
	}

	cp, _ := New(CurrentPrice, Config{})
	p, err := cp.Pick(cands)
	if err != nil {
		t.Fatal(err)
	}
	if p.Index != 0 {
		t.Fatalf("current-price picked %d, want the trough 0", p.Index)
	}

	pm, _ := New(PredictedMean, Config{})
	p, err = pm.Pick(cands)
	if err != nil {
		t.Fatal(err)
	}
	if p.Index != 1 {
		t.Errorf("predicted-mean picked %d, want the steady partition 1", p.Index)
	}
	if p.Predicted != 2 {
		t.Errorf("predicted = %v, want the steady forecast 2", p.Predicted)
	}
}

func TestPredictedQuantilePenalizesVolatility(t *testing.T) {
	// Same mean, different deviation: the mean ties, the upper quantile must
	// prefer calm even when volatile comes first.
	cands := []Candidate{
		{ID: "volatile", CurrentPrice: 3, Forecast: forecastOf(3, 2)},
		{ID: "calm", CurrentPrice: 3, Forecast: forecastOf(3, 0)},
	}
	s, _ := New(PredictedQuantile, Config{Quantile: 0.9})
	p, err := s.Pick(cands)
	if err != nil {
		t.Fatal(err)
	}
	if p.Index != 1 {
		t.Errorf("predicted-quantile picked %d, want calm 1", p.Index)
	}
	if p.Predicted != 3 {
		t.Errorf("predicted = %v, want calm's 0.9-quantile 3", p.Predicted)
	}
}

func TestPredictedFallsBackToCurrentPriceWithoutHistory(t *testing.T) {
	s, _ := New(PredictedMean, Config{})
	cands := []Candidate{
		{ID: "a", CurrentPrice: 2},
		{ID: "b", CurrentPrice: 1},
	}
	p, err := s.Pick(cands)
	if err != nil {
		t.Fatal(err)
	}
	if p.Index != 1 || p.Predicted != 1 {
		t.Errorf("pick = %+v, want index 1 predicted 1", p)
	}
}

func TestPortfolioEqualWeightsOnShortHistory(t *testing.T) {
	s, _ := New(Portfolio, Config{})
	cands := []Candidate{
		{ID: "a", CurrentPrice: 1},
		{ID: "b", CurrentPrice: 2},
		{ID: "c", CurrentPrice: 3},
	}
	counts := map[int]int{}
	for i := 0; i < 9; i++ {
		p, err := s.Pick(cands)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Weights) != 3 {
			t.Fatalf("weights = %v", p.Weights)
		}
		for _, w := range p.Weights {
			if math.Abs(w-1.0/3.0) > 1e-12 {
				t.Fatalf("short-history weights = %v, want equal", p.Weights)
			}
		}
		counts[p.Index]++
	}
	// Equal weights -> perfectly fair rotation over 9 picks.
	for i := 0; i < 3; i++ {
		if counts[i] != 3 {
			t.Errorf("candidate %d picked %d times, want 3 (counts %v)", i, counts[i], counts)
		}
	}
}

func TestPortfolioFavorsLowVariancePartition(t *testing.T) {
	// Candidate "calm" has near-constant returns, "wild" swings hard. The
	// minimum-variance portfolio concentrates weight on calm.
	calm := make([]float64, 24)
	wild := make([]float64, 24)
	for i := range calm {
		calm[i] = 2 + 0.01*math.Sin(float64(i))
		wild[i] = 2 + 1.8*math.Sin(float64(i)/2)
	}
	cands := []Candidate{
		{ID: "wild", CurrentPrice: 2, History: wild},
		{ID: "calm", CurrentPrice: 2, History: calm},
	}
	s, _ := New(Portfolio, Config{})
	var calmPicks int
	var w []float64
	for i := 0; i < 10; i++ {
		p, err := s.Pick(cands)
		if err != nil {
			t.Fatal(err)
		}
		w = p.Weights
		if p.Index == 1 {
			calmPicks++
		}
	}
	if w[1] <= w[0] {
		t.Errorf("weights = %v, want calm > wild", w)
	}
	if calmPicks < 6 {
		t.Errorf("calm picked %d/10, want majority", calmPicks)
	}
	// Weights stay a distribution.
	if s := w[0] + w[1]; math.Abs(s-1) > 1e-9 {
		t.Errorf("weights sum to %v", s)
	}
	for _, v := range w {
		if v < 0 || math.IsNaN(v) {
			t.Errorf("weight %v out of range", v)
		}
	}
}

func TestPortfolioDeterministicSequence(t *testing.T) {
	mk := func() Strategy { s, _ := New(Portfolio, Config{}); return s }
	cands := []Candidate{
		{ID: "a", CurrentPrice: 1, History: constHist(1, 12)},
		{ID: "b", CurrentPrice: 2, History: constHist(2, 12)},
	}
	run := func(s Strategy) []int {
		var seq []int
		for i := 0; i < 12; i++ {
			p, err := s.Pick(cands)
			if err != nil {
				t.Fatal(err)
			}
			seq = append(seq, p.Index)
		}
		return seq
	}
	a, b := run(mk()), run(mk())
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sequences diverge at %d: %v vs %v", i, a, b)
		}
	}
}

func TestPortfolioSplitterDeclinesThenSplits(t *testing.T) {
	hosts := []core.Host{
		{ID: "h0", Preference: 2800, Price: 1},
		{ID: "h1", Preference: 2800, Price: 1},
	}
	sp := NewPortfolioSplitter(4)
	if sp.Name() != Portfolio {
		t.Errorf("name = %q", sp.Name())
	}

	// No history: decline without error.
	allocs, err := sp.Split(10, hosts, func(string) []float64 { return nil })
	if err != nil || allocs != nil {
		t.Fatalf("expected decline, got allocs=%v err=%v", allocs, err)
	}

	// Enough history: h0 steady, h1 wildly swinging; the min-variance split
	// must put more budget on h0, and bids must sum to the budget.
	histories := map[string][]float64{
		"h0": {1, 1.01, 0.99, 1, 1.02, 0.98, 1, 1},
		"h1": {0.3, 3, 0.4, 2.5, 0.2, 3.5, 0.3, 3},
	}
	allocs, err = sp.Split(10, hosts, func(id string) []float64 { return histories[id] })
	if err != nil {
		t.Fatal(err)
	}
	if len(allocs) == 0 {
		t.Fatal("no allocations")
	}
	var total, h0bid float64
	for _, a := range allocs {
		total += a.Bid
		if a.Host.ID == "h0" {
			h0bid = a.Bid
		}
	}
	if math.Abs(total-10) > 1e-9 {
		t.Errorf("bids sum to %v, want 10", total)
	}
	if h0bid <= 10.0/2 {
		t.Errorf("steady host got %v of 10, want the majority", h0bid)
	}
}

func TestPortfolioSplitterIdenticalHostsEqualSplit(t *testing.T) {
	hosts := []core.Host{
		{ID: "h0", Preference: 2800, Price: 2},
		{ID: "h1", Preference: 2800, Price: 2},
		{ID: "h2", Preference: 2800, Price: 2},
	}
	h := []float64{2, 2.2, 1.8, 2, 2.1, 1.9, 2, 2}
	sp := NewPortfolioSplitter(4)
	allocs, err := sp.Split(9, hosts, func(string) []float64 { return h })
	if err != nil {
		t.Fatal(err)
	}
	if len(allocs) != 3 {
		t.Fatalf("allocs = %v", allocs)
	}
	for _, a := range allocs {
		if math.Abs(a.Bid-3) > 1e-9 {
			t.Errorf("bid %v, want equal 3", a.Bid)
		}
		if math.IsNaN(a.Bid) {
			t.Errorf("NaN bid for %s", a.Host.ID)
		}
	}
}
