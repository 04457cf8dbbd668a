package strategy

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"tycoongrid/internal/predict"
)

// handleCands builds n candidates backed by streaming forecast handles and
// lazy history closures, counting how often each source is touched.
func handleCands(n int, histCalls, fcCalls *int) []Candidate {
	cands := make([]Candidate, n)
	for i := range cands {
		mean := 0.2 + 0.01*float64(i)
		cands[i] = Candidate{
			ID:           fmt.Sprintf("p%02d", i),
			CurrentPrice: mean + 0.05,
			Step:         10 * time.Second,
			Hist: func() []float64 {
				*histCalls++
				return []float64{mean, mean, mean}
			},
			Forecast: func(time.Duration) (predict.Forecast, error) {
				*fcCalls++
				return predict.Forecast{Mean: mean, Sigma: 0.01}, nil
			},
		}
	}
	return cands
}

// TestPredictedUsesHandle checks that prediction strategies score through the
// streaming handle — never materializing history — and pick by forecast, not
// current price.
func TestPredictedUsesHandle(t *testing.T) {
	for _, name := range []string{PredictedMean, PredictedQuantile} {
		var histCalls, fcCalls int
		cands := handleCands(4, &histCalls, &fcCalls)
		s, err := New(name, Config{})
		if err != nil {
			t.Fatal(err)
		}
		p, err := s.Pick(cands)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.Index != 0 { // lowest forecast mean; current prices alone tie-break differently
			t.Errorf("%s picked %d, want 0 (lowest forecast)", name, p.Index)
		}
		if fcCalls != 4 {
			t.Errorf("%s forecast handle called %d times, want 4", name, fcCalls)
		}
		if histCalls != 0 {
			t.Errorf("%s materialized history %d times, want 0", name, histCalls)
		}
	}
}

// TestHandleErrorFallsBack checks how a handle that cannot forecast degrades:
// one reporting insufficient history (a predictor attached moments ago) or
// any other error scores as the current price, exactly like a failed fit on
// the History fallback.
func TestHandleErrorFallsBack(t *testing.T) {
	cands := []Candidate{
		{ID: "a", CurrentPrice: 0.9,
			Forecast: func(time.Duration) (predict.Forecast, error) {
				return predict.Forecast{}, predict.ErrInsufficientHistory
			}},
		{ID: "b", CurrentPrice: 0.3,
			Forecast: func(time.Duration) (predict.Forecast, error) {
				return predict.Forecast{}, errors.New("boom")
			}},
	}
	s, err := New(PredictedMean, Config{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.Pick(cands)
	if err != nil {
		t.Fatal(err)
	}
	if p.Index != 1 || p.Predicted != 0.3 {
		t.Errorf("pick = %+v, want index 1 at current price 0.3", p)
	}
}

// TestLazyHistMemoized checks a candidate's Hist source is consulted at most
// once per Pick even when several consumers need the series (portfolio:
// shortest-length scan, return series, predicted-mean of the winner).
func TestLazyHistMemoized(t *testing.T) {
	var histCalls int
	cands := make([]Candidate, 3)
	for i := range cands {
		base := 0.2 + 0.1*float64(i)
		cands[i] = Candidate{
			ID:           fmt.Sprintf("p%d", i),
			CurrentPrice: base,
			Hist: func() []float64 {
				histCalls++
				vs := make([]float64, 16)
				for j := range vs {
					vs[j] = base + 0.001*float64(j%5)
				}
				return vs
			},
		}
	}
	s, err := New(Portfolio, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Pick(cands); err != nil {
		t.Fatal(err)
	}
	if histCalls != 3 {
		t.Errorf("Hist called %d times for 3 candidates, want 3 (memoized)", histCalls)
	}
}

// TestPredictedHandleAllocs gates the matchmaking hot path: scoring via
// streaming handles allocates nothing — no history slices, no predictor
// construction, no synthetic-timestamp replay, no per-pick scratch. The
// History fallback allocates hundreds of times more; a regression that
// reintroduces per-candidate materialization trips this bound. (The same
// gate over the meta-scheduler's own candidates is arc's
// TestMetaPickReadsHandlesNotHistory.)
func TestPredictedHandleAllocs(t *testing.T) {
	var histCalls, fcCalls int
	cands := handleCands(8, &histCalls, &fcCalls)
	s, err := New(PredictedMean, Config{})
	if err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(200, func() {
		if _, err := s.Pick(cands); err != nil {
			t.Fatal(err)
		}
	})
	// The scores and the argmin tie slice live on the strategy, grown once.
	if avg != 0 {
		t.Errorf("predicted-mean Pick allocates %.1f objects/op via handles, want 0", avg)
	}
	if histCalls != 0 {
		t.Errorf("materialized history %d times across the runs, want 0", histCalls)
	}
}

// historyCands builds candidates with no handle: an eager history slice each,
// which the strategy replays through a fresh batch predictor — the reference
// path no in-tree scheduler takes any more, kept for the comparison below.
func historyCands(n, histLen int) []Candidate {
	cands := make([]Candidate, n)
	for i := range cands {
		vs := make([]float64, histLen)
		for j := range vs {
			vs[j] = 0.2 + 0.01*float64(i) + 0.002*float64(j%7)
		}
		cands[i] = Candidate{
			ID:           fmt.Sprintf("p%02d", i),
			CurrentPrice: vs[histLen-1],
			History:      vs,
			Step:         10 * time.Second,
		}
	}
	return cands
}

// BenchmarkPredictedPickHistory measures the reference path: per candidate,
// Pick constructs a predictor and replays the whole history with synthetic
// timestamps before every forecast.
func BenchmarkPredictedPickHistory(b *testing.B) {
	cands := historyCands(8, 256)
	s, err := New(PredictedMean, Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Pick(cands); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredictedPickHandle measures the same decision the way the
// meta-scheduler makes it, through live streaming-AR handles: the fit already
// happened at observation time, so Pick only reads.
func BenchmarkPredictedPickHandle(b *testing.B) {
	const n, histLen = 8, 256
	cands := make([]Candidate, n)
	for i := range cands {
		sp, err := predict.NewStreaming(predict.StreamingAR, predict.PredictorConfig{
			Window: histLen, Step: 10 * time.Second,
		})
		if err != nil {
			b.Fatal(err)
		}
		t0 := time.Unix(0, 0)
		for j := 0; j < histLen; j++ {
			t0 = t0.Add(10 * time.Second)
			v := 0.2 + 0.01*float64(i) + 0.002*float64(j%7)
			if err := sp.Observe(v, t0); err != nil {
				b.Fatal(err)
			}
		}
		models := []*predict.StreamAR{sp}
		cands[i] = Candidate{
			ID:           fmt.Sprintf("p%02d", i),
			CurrentPrice: 0.25,
			Step:         10 * time.Second,
			Forecast: func(h time.Duration) (predict.Forecast, error) {
				return predict.ForecastMean(models, h)
			},
		}
	}
	s, err := New(PredictedMean, Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Pick(cands); err != nil {
			b.Fatal(err)
		}
	}
}
