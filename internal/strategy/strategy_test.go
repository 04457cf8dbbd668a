package strategy

import (
	"errors"
	"math"
	"testing"
	"time"

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
	s, _ := New(PredictedQuantile, Config{})
	p, err := s.Pick(cands)
	if err != nil {
		t.Fatal(err)
	}
	if p.Index != 1 {
		t.Errorf("predicted-quantile picked %d, want calm 1", p.Index)
	}
	if p.Predicted != 3 {
		t.Errorf("predicted = %v, want calm's 0.8-quantile 3", p.Predicted)
	}
	// The score is the forecast's 80th percentile.
	want, err := predict.Forecast{Mean: 3, Sigma: 2}.Quantile(0.8)
	if err != nil {
		t.Fatal(err)
	}
	if p, err := s.Pick(cands[:1]); err != nil || p.Predicted != want {
		t.Errorf("volatile alone: pick = %+v, %v; want predicted %v", p, err, want)
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

// TestPortfolioWeightsNeedMinObsValidPrices walks returnSeries' declines
// through the portfolio strategy: fewer than minObs aligned samples, or a
// non-positive or non-finite price in the aligned tail, gives equal weights;
// minObs clean samples are enough for the minimum-variance weights, which
// favour the steady candidate; identical histories are a singular covariance
// and also split equally.
func TestPortfolioWeightsNeedMinObsValidPrices(t *testing.T) {
	steady := []float64{1, 1.01, 0.99, 1, 1.02, 0.98, 1, 1}
	swinging := []float64{0.3, 3, 0.4, 2.5, 0.2, 3.5, 0.3, 3}
	withPrice := func(h []float64, i int, v float64) []float64 {
		h = append([]float64(nil), h...)
		h[i] = v
		return h
	}
	cases := []struct {
		name        string
		a, b        []float64
		steadyFirst bool // want weights[0] > weights[1]; otherwise equal
	}{
		{"minObs samples", steady, swinging, true},
		{"one short of minObs", steady[1:], swinging[1:], false},
		{"shortest history decides", steady, swinging[1:], false},
		{"zero price", steady, withPrice(swinging, 3, 0), false},
		{"negative price", withPrice(steady, 7, -1), swinging, false},
		{"NaN price", steady, withPrice(swinging, 0, math.NaN()), false},
		{"identical histories", steady, steady, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, _ := New(Portfolio, Config{})
			p, err := s.Pick([]Candidate{
				{ID: "a", CurrentPrice: 1, History: tc.a},
				{ID: "b", CurrentPrice: 1, History: tc.b},
			})
			if err != nil {
				t.Fatal(err)
			}
			w := p.Weights
			if tc.steadyFirst {
				if w[0] <= w[1] || math.Abs(w[0]+w[1]-1) > 1e-9 {
					t.Errorf("weights = %v, want the steady candidate's larger, summing to 1", w)
				}
				return
			}
			if w[0] != 0.5 || w[1] != 0.5 {
				t.Errorf("weights = %v, want equal", w)
			}
		})
	}
}
