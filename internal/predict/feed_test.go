package predict

import (
	"errors"
	"math"
	"testing"
	"time"

	"tycoongrid/internal/pricefeed"
	"tycoongrid/internal/rng"
)

// feedHub pushes vs through a hub observer for hostID, spacing samples step
// apart starting after base — the exact path an auction clear takes.
func feedHub(t *testing.T, h *pricefeed.Hub, hostID string, vs []float64, base time.Time, step time.Duration) {
	t.Helper()
	obs := h.Observer(hostID)
	at := base
	for _, v := range vs {
		at = at.Add(step)
		obs(v, at)
	}
}

// TestAttachHubForecastsFromRingStream checks the whole colocation contract:
// samples observed through the hub reach the attached streaming predictor,
// and the handle's forecast matches a predictor fed the same stream by hand.
func TestAttachHubForecastsFromRingStream(t *testing.T) {
	hub := pricefeed.NewHub(64)
	cfg := PredictorConfig{Window: 64, Order: 3}
	ff := AttachHub(hub, cfg, "h00", "h01")

	src := priceSeries(rng.New(11), 80)
	base := time.Unix(0, 0)
	feedHub(t, hub, "h00", src, base, DefaultStep)

	want, err := NewStreaming(StreamingAR, cfg)
	if err != nil {
		t.Fatal(err)
	}
	at := base
	for _, v := range src {
		at = at.Add(DefaultStep)
		if err := want.Observe(v, at); err != nil {
			t.Fatal(err)
		}
	}
	wf, err := want.Forecast(30 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	gf, err := ff.ForecastHost("h00", 30*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if gf != wf {
		t.Errorf("hub-fed forecast %+v != hand-fed %+v", gf, wf)
	}

	// h01 never saw a sample: per-host insufficiency must surface.
	if _, err := ff.ForecastHost("h01", 30*time.Minute); !errors.Is(err, ErrInsufficientHistory) {
		t.Errorf("empty host forecast err = %v, want ErrInsufficientHistory", err)
	}
}

// TestForecastMeanCombinesAndSkips checks the partition fold: means average,
// sigmas combine as RMS, hosts without history or without a model are
// skipped, and a partition with no ready host reports insufficient history.
func TestForecastMeanCombinesAndSkips(t *testing.T) {
	hub := pricefeed.NewHub(64)
	ff := AttachHub(hub, PredictorConfig{Window: 32, Order: 3}, "hA", "hB", "hC")
	base := time.Unix(0, 0)
	feedHub(t, hub, "hA", priceSeries(rng.New(21), 40), base, DefaultStep)
	feedHub(t, hub, "hB", priceSeries(rng.New(22), 40), base, DefaultStep)
	// hC attached but never fed.

	fa, err := ff.ForecastHost("hA", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := ff.ForecastHost("hB", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ff.ForecastMean([]string{"hA", "hB", "hC", "unattached"}, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	wantMean := (fa.Mean + fb.Mean) / 2
	wantSigma := math.Sqrt((fa.Sigma*fa.Sigma + fb.Sigma*fb.Sigma) / 2)
	if !closeTo(got.Mean, wantMean) || !closeTo(got.Sigma, wantSigma) {
		t.Errorf("combined = %+v, want mean %v sigma %v", got, wantMean, wantSigma)
	}

	if _, err := ff.ForecastMean([]string{"hC"}, time.Hour); !errors.Is(err, ErrInsufficientHistory) {
		t.Errorf("all-empty partition err = %v, want ErrInsufficientHistory", err)
	}
	if _, err := ff.ForecastMean(nil, time.Hour); !errors.Is(err, ErrInsufficientHistory) {
		t.Errorf("no-host partition err = %v, want ErrInsufficientHistory", err)
	}
}

// TestForecastHostUnattachedHost checks that the host set is the one
// AttachHub was given: a host it never listed has no model, even once the hub
// carries its prices, and asking for it is an error of its own rather than a
// lack of history that more samples would cure.
func TestForecastHostUnattachedHost(t *testing.T) {
	hub := pricefeed.NewHub(64)
	ff := AttachHub(hub, PredictorConfig{Window: 32, Order: 3}, "hA")
	base := time.Unix(0, 0)
	feedHub(t, hub, "hA", priceSeries(rng.New(31), 40), base, DefaultStep)
	feedHub(t, hub, "hX", priceSeries(rng.New(32), 40), base, DefaultStep)

	if _, err := ff.ForecastHost("hA", time.Hour); err != nil {
		t.Fatalf("attached host: %v", err)
	}
	_, err := ff.ForecastHost("hX", time.Hour)
	if err == nil || errors.Is(err, ErrInsufficientHistory) {
		t.Fatalf("unattached host err = %v, want a no-model error", err)
	}
	if _, merr := ff.ForecastMean([]string{"hX"}, time.Hour); merr == nil || merr.Error() != err.Error() {
		t.Errorf("partition of unattached hosts err = %v, want %v", merr, err)
	}
}
