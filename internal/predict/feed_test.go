package predict

import (
	"errors"
	"math"
	"testing"
	"time"

	"tycoongrid/internal/pricefeed"
	"tycoongrid/internal/rng"
	"tycoongrid/internal/tsdb"
)

// fedModel returns a streaming AR model shaped by cfg that has observed vs,
// spaced DefaultStep apart from the epoch.
func fedModel(t *testing.T, cfg PredictorConfig, vs []float64) *StreamAR {
	t.Helper()
	sp, err := NewStreaming(StreamingAR, cfg)
	if err != nil {
		t.Fatal(err)
	}
	at := time.Unix(0, 0)
	for _, v := range vs {
		at = at.Add(DefaultStep)
		if err := sp.Observe(v, at); err != nil {
			t.Fatal(err)
		}
	}
	return sp
}

// TestForecastMeanCombinesAndSkips checks the partition fold: means average,
// sigmas combine as RMS, models without enough history are skipped, and a
// partition with no ready model reports insufficient history.
func TestForecastMeanCombinesAndSkips(t *testing.T) {
	cfg := PredictorConfig{Window: 32, Order: 3}
	a := fedModel(t, cfg, priceSeries(rng.New(21), 40))
	b := fedModel(t, cfg, priceSeries(rng.New(22), 40))
	empty := fedModel(t, cfg, nil)

	fa, err := a.Forecast(time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := b.Forecast(time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ForecastMean([]*StreamAR{a, empty, b}, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	wantMean := (fa.Mean + fb.Mean) / 2
	wantSigma := math.Sqrt((fa.Sigma*fa.Sigma + fb.Sigma*fb.Sigma) / 2)
	if !closeTo(got.Mean, wantMean) || !closeTo(got.Sigma, wantSigma) {
		t.Errorf("combined = %+v, want mean %v sigma %v", got, wantMean, wantSigma)
	}
	if one, err := ForecastMean([]*StreamAR{a}, time.Hour); err != nil || one != fa {
		t.Errorf("one model's partition = %+v, %v; want its own forecast %+v", one, err, fa)
	}

	if _, err := ForecastMean([]*StreamAR{empty}, time.Hour); !errors.Is(err, ErrInsufficientHistory) {
		t.Errorf("all-empty partition err = %v, want ErrInsufficientHistory", err)
	}
	if _, err := ForecastMean(nil, time.Hour); !errors.Is(err, ErrInsufficientHistory) {
		t.Errorf("no-host partition err = %v, want ErrInsufficientHistory", err)
	}
}

// TestModelRefusesOnlyWhatItsRingRefuses is why a model hung on a market
// counts no refusals of its own: fed the stream its host's ring was fed from
// some sample on, a model refuses a sample only when the ring refuses it too,
// and the ring's observer counts that. The stream mixes good samples with
// non-finite and negative prices, duplicates and steps back in time; the
// model is attached after the ring has seen a prefix of it.
func TestModelRefusesOnlyWhatItsRingRefuses(t *testing.T) {
	src := rng.New(41)
	for trial := 0; trial < 50; trial++ {
		ring := tsdb.NewRing(64)
		observe := pricefeed.Observer(ring)
		model, err := NewStreaming(StreamingAR, PredictorConfig{Window: 64, Order: 3})
		if err != nil {
			t.Fatal(err)
		}
		attach := src.Intn(40)
		at := time.Unix(1_000_000, 0)
		refusedByModel := 0
		for i := 0; i < 200; i++ {
			price := src.Uniform(0.1, 2)
			switch src.Intn(10) {
			case 0:
				price = math.NaN()
			case 1:
				price = -price
			case 2:
				price = math.Inf(1)
			}
			switch src.Intn(8) {
			case 0: // a duplicate instant
			case 1:
				at = at.Add(-time.Duration(src.Intn(30)) * time.Second)
			default:
				at = at.Add(time.Duration(1+src.Intn(20)) * time.Second)
			}
			dropped := ring.Dropped()
			observe(price, at)
			ringRefused := ring.Dropped() != dropped
			if i < attach {
				continue
			}
			if modelErr := model.Observe(price, at); modelErr != nil {
				refusedByModel++
				if !ringRefused {
					t.Fatalf("trial %d, sample %d (%v at %v): the model refused it (%v), the ring took it", trial, i, price, at, modelErr)
				}
			}
		}
		if refusedByModel == 0 {
			t.Fatalf("trial %d: the model refused nothing; the stream tests nothing", trial)
		}
	}
}

// BenchmarkForecastMeanPartition is one broker-predict candidate per op: a
// partition of 4 hosts' models with the strategies world's window (600) and
// horizon (30 min, 180 steps of 10 s), each model fed one new clear before
// the call, so every call re-solves all four fits and iterates four horizons.
func BenchmarkForecastMeanPartition(b *testing.B) {
	models := make([]*StreamAR, 4)
	for m := range models {
		sp, err := NewStreaming(StreamingAR, PredictorConfig{Window: 600, Step: DefaultStep})
		if err != nil {
			b.Fatal(err)
		}
		models[m] = sp
	}
	xs := priceSeries(rng.New(2006), 1200)
	at := time.Unix(0, 0)
	observe := func(i int) {
		at = at.Add(DefaultStep)
		for m, sp := range models {
			if err := sp.Observe(xs[(i+97*m)%len(xs)], at); err != nil {
				b.Fatal(err)
			}
		}
	}
	for i := 0; i < 600; i++ {
		observe(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		observe(i)
		if _, err := ForecastMean(models, 30*time.Minute); err != nil {
			b.Fatal(err)
		}
	}
}
