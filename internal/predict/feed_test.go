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
	ff, err := AttachHub(hub, StreamingAR, cfg, "h00", "h01")
	if err != nil {
		t.Fatal(err)
	}

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
// sigmas combine as RMS, hosts without history are skipped, and a partition
// with no ready host reports insufficient history.
func TestForecastMeanCombinesAndSkips(t *testing.T) {
	hub := pricefeed.NewHub(64)
	ff, err := AttachHub(hub, StreamingWindow, PredictorConfig{Window: 32}, "hA", "hB")
	if err != nil {
		t.Fatal(err)
	}
	base := time.Unix(0, 0)
	feedHub(t, hub, "hA", priceSeries(rng.New(21), 40), base, DefaultStep)
	feedHub(t, hub, "hB", priceSeries(rng.New(22), 40), base, DefaultStep)
	// hC attached but never fed.
	ff.Host("hC")

	fa, err := ff.ForecastHost("hA", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := ff.ForecastHost("hB", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ff.ForecastMean([]string{"hA", "hB", "hC"}, time.Hour)
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

// TestAttachHubValidates checks constructor error paths: nil hub and an
// unknown streaming family are both refused up front.
func TestAttachHubValidates(t *testing.T) {
	if _, err := AttachHub(nil, StreamingAR, PredictorConfig{}); err == nil {
		t.Error("nil hub accepted")
	}
	if _, err := AttachHub(pricefeed.NewHub(8), "no-such-model", PredictorConfig{}); err == nil {
		t.Error("unknown streaming family accepted")
	}
}

// TestHostLazyAndMemoized checks Host creates one predictor per host and
// returns the same instance thereafter, so feed state never forks.
func TestHostLazyAndMemoized(t *testing.T) {
	hub := pricefeed.NewHub(16)
	ff, err := AttachHub(hub, StreamingNormal, PredictorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	a, b := ff.Host("hZ"), ff.Host("hZ")
	if a != b {
		t.Error("Host returned distinct predictors for one host")
	}
	// The lazily created host is attached: hub samples must reach it.
	feedHub(t, hub, "hZ", []float64{1, 2, 3}, time.Unix(0, 0), DefaultStep)
	f, err := a.Forecast(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if !closeTo(f.Mean, 2) {
		t.Errorf("mean = %v, want 2", f.Mean)
	}
}
