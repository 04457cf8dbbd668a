package agent

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"tycoongrid/internal/grid"
	"tycoongrid/internal/metrics"
	"tycoongrid/internal/predict"
	"tycoongrid/internal/sim"
	"tycoongrid/internal/strategy"
)

// rejectedSamples reads pricefeed_samples_rejected_total out of a snapshot
// of the default registry.
func rejectedSamples() uint64 {
	for _, c := range metrics.Default().Snapshot().Counters {
		if c.Name == "pricefeed_samples_rejected_total" {
			return c.Value
		}
	}
	return 0
}

func TestAgentRecordsPriceHistory(t *testing.T) {
	rejected := rejectedSamples()
	w := newWorld(t, 2)
	if h := w.agent.PriceHistory(0); len(h) != 0 {
		t.Fatalf("history before any tick: %v", h)
	}
	if _, err := w.agent.Submit(w.payToken(t, 100), request(2, 5*time.Hour), chunks(4, 30)); err != nil {
		t.Fatal(err)
	}
	w.eng.RunFor(time.Hour)

	hist := w.agent.PriceHistory(0)
	if len(hist) == 0 {
		t.Fatal("no price history after an hour of auction ticks")
	}
	for i, p := range hist {
		if p <= 0 || math.IsNaN(p) {
			t.Fatalf("history[%d] = %v", i, p)
		}
	}
	// Per-host histories exist for every partition host and match in length.
	for i, id := range w.agent.HostIDs() {
		w.cluster.Sync(id)
		hh := w.agent.feed[i].Prices()
		if len(hh) != len(hist) {
			t.Errorf("host %s history len %d, mean history len %d", id, len(hh), len(hist))
		}
	}
	// max truncates to the tail.
	if tail := w.agent.PriceHistory(3); len(tail) != 3 {
		t.Errorf("tail len = %d, want 3", len(tail))
	}
	if got := rejectedSamples() - rejected; got != 0 {
		t.Errorf("feed rejected %d samples", got)
	}
}

func TestAgentJobIDPrefix(t *testing.T) {
	w := newWorld(t, 2)
	// A second partitioned agent sharing the broker account must not collide
	// on sub-account IDs with the default-prefix agent.
	v := w.agent.cfg.Verifier
	b, err := New(Config{
		Cluster:     w.cluster,
		Bank:        w.bank,
		Identity:    w.agent.cfg.Identity,
		Account:     "broker",
		Verifier:    v,
		Hosts:       []string{"h01"},
		JobIDPrefix: "p1",
	})
	if err != nil {
		t.Fatal(err)
	}
	j0, err := w.agent.Submit(w.payToken(t, 50), request(1, 5*time.Hour), chunks(1, 10))
	if err != nil {
		t.Fatal(err)
	}
	j1, err := b.Submit(w.payToken(t, 50), request(1, 5*time.Hour), chunks(1, 10))
	if err != nil {
		t.Fatal(err)
	}
	if j0.ID != "job-0001" {
		t.Errorf("default prefix job ID = %q", j0.ID)
	}
	if j1.ID != "p1-0001" {
		t.Errorf("prefixed job ID = %q", j1.ID)
	}
	if j0.SubAccount == j1.SubAccount {
		t.Errorf("sub-accounts collide: %q", j0.SubAccount)
	}
	w.eng.RunFor(2 * time.Hour)
	if j0.State != StateDone || j1.State != StateDone {
		t.Errorf("states = %v, %v", j0.State, j1.State)
	}
}

// TestForecastHandleAttachesOnFirstRequest pins the attach rule from both
// sides. An agent nobody forecasts from carries no predictor, however many
// clears flow — an eager attach in New would put one AR update per host per
// tick on every world without a meta-scheduler. A handle asked for before the
// first clear has seen every sample its hosts' rings hold.
func TestForecastHandleAttachesOnFirstRequest(t *testing.T) {
	idle := newWorld(t, 2)
	idle.eng.RunFor(100 * idle.cluster.Interval())
	if n := len(idle.agent.PriceHistory(0)); n != 100 {
		t.Fatalf("recorded %d ticks, want 100", n)
	}
	if idle.agent.models != nil {
		t.Fatal("predictors attached to an agent whose handle was never requested")
	}

	w := newWorld(t, 2)
	handle := w.agent.ForecastHandle()
	if _, err := handle(10 * time.Minute); !errors.Is(err, predict.ErrInsufficientHistory) {
		t.Fatalf("forecast before any clear: err = %v, want ErrInsufficientHistory", err)
	}
	if _, err := w.agent.Submit(w.payToken(t, 100), request(2, 5*time.Hour), chunks(4, 30)); err != nil {
		t.Fatal(err)
	}
	w.eng.RunFor(100 * w.cluster.Interval())
	fc, err := handle(10 * time.Minute)
	if err != nil {
		t.Fatalf("forecast after 100 clears: %v", err)
	}
	if fc.Mean <= 0 || math.IsNaN(fc.Mean) || fc.Sigma < 0 {
		t.Errorf("forecast = %+v", fc)
	}
	// Asking again reuses the attached predictors: same state, same answer.
	again, err := w.agent.ForecastHandle()(10 * time.Minute)
	if err != nil || again != fc {
		t.Errorf("second handle forecast = %+v, %v; want %+v", again, err, fc)
	}
}

// TestNewAllocatesNoPredictor is the count behind the rule above at
// grid-wide's size: constructing an agent over 10 000 hosts allocates the
// price rings and nothing per host for prediction.
func TestNewAllocatesNoPredictor(t *testing.T) {
	const hosts = 10000
	eng := sim.NewEngine()
	specs := make([]grid.HostSpec, hosts)
	for i := range specs {
		specs[i] = grid.HostSpec{ID: fmt.Sprintf("h%05d", i), CPUs: 2, CPUMHz: 2800, MaxVMs: 30}
	}
	cluster, err := grid.New(eng, grid.Config{Hosts: specs})
	if err != nil {
		t.Fatal(err)
	}
	small := newWorld(t, 1)
	cfg := small.agent.cfg
	cfg.Cluster, cfg.Hosts = cluster, nil
	// One call, counted by MemStats: AllocsPerRun would run New twice on one
	// cluster, and the second agent's observers outgrow the room each market
	// keeps inline for two.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	a, err := New(cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	perHost := float64(after.Mallocs-before.Mallocs) / hosts
	bytesPerHost := float64(after.TotalAlloc-before.TotalAlloc) / hosts
	if a.models != nil {
		t.Fatal("New attached predictors")
	}
	// A ring and its observer closure: 2.0 objects and ≈ 180 B a host (3.0
	// and ≈ 290 B while a hub kept a map of host entries); a streaming AR
	// model and its observer are 7 objects more.
	if perHost > 2.5 || bytesPerHost > 200 {
		t.Errorf("agent.New allocates %.1f objects and %.0f B per host, want <= 2.5 and <= 200", perHost, bytesPerHost)
	}
}

// TestForecastHandleRequestedLateHasNoBackfill pins what a late first request
// costs: the predictors see only the clears after the attach, so the handle
// reports ErrInsufficientHistory — which prediction strategies score as the
// current price — although the ring beside them is full.
func TestForecastHandleRequestedLateHasNoBackfill(t *testing.T) {
	w := newWorld(t, 2)
	w.eng.RunFor(200 * w.cluster.Interval())
	if n := len(w.agent.PriceHistory(0)); n != 200 {
		t.Fatalf("recorded %d ticks, want 200", n)
	}
	handle := w.agent.ForecastHandle()
	_, err := handle(10 * time.Minute)
	if !errors.Is(err, predict.ErrInsufficientHistory) {
		t.Fatalf("forecast right after a late attach: err = %v, want ErrInsufficientHistory", err)
	}
	s, err := strategy.New(strategy.PredictedMean, strategy.Config{})
	if err != nil {
		t.Fatal(err)
	}
	current := w.agent.MeanSpotPrice()
	p, err := s.Pick([]strategy.Candidate{{ID: "p0", CurrentPrice: current, Forecast: handle}})
	if err != nil || p.Predicted != current {
		t.Errorf("pick = %+v, %v; want the current price %v", p, err, current)
	}

	// Only what came after the attach counts: a late-attached agent and one
	// attached from the start, on the same market, disagree until the window
	// has turned over.
	w.eng.RunFor(50 * w.cluster.Interval())
	late, err := handle(10 * time.Minute)
	if err != nil {
		t.Fatalf("forecast 50 clears after the attach: %v", err)
	}
	sp, err := predict.NewStreaming(predict.StreamingAR, predict.PredictorConfig{
		Window: w.agent.cfg.FeedCapacity, Step: w.cluster.Interval(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ring := w.agent.feed[0].Samples()
	for _, smp := range ring[len(ring)-50:] {
		if err := sp.Observe(smp.Price, smp.At); err != nil {
			t.Fatal(err)
		}
	}
	want, err := sp.Forecast(10 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(late.Mean-want.Mean) > 1e-12 {
		t.Errorf("late handle mean = %v, want %v (the last 50 samples alone)", late.Mean, want.Mean)
	}
}

// The same rule when nobody has looked since the start: after fifty idle
// ticks the partition's markets are asleep and owe the feed fifty samples
// each. Asking for the handle pays that debt into the rings before the
// predictors exist, so they still see nothing older than themselves.
func TestForecastHandleFirstTouchAfterIdleTicks(t *testing.T) {
	w := newWorld(t, 2)
	w.eng.RunFor(50 * w.cluster.Interval())
	if n := w.agent.feed[0].Len(); n >= 50 {
		t.Fatalf("the ring already holds %d samples: the market never slept and the test shows nothing", n)
	}
	handle := w.agent.ForecastHandle()
	if n := w.agent.feed[0].Len(); n != 50 {
		t.Errorf("the ring holds %d samples once the handle exists, want all 50", n)
	}
	if _, err := handle(10 * time.Minute); !errors.Is(err, predict.ErrInsufficientHistory) {
		t.Errorf("forecast right after a late attach: err = %v, want ErrInsufficientHistory: the predictors were fed replayed samples", err)
	}
	w.eng.RunFor(50 * w.cluster.Interval())
	if _, err := handle(10 * time.Minute); err != nil {
		t.Errorf("forecast 50 clears after the attach: %v", err)
	}
}

// TestForecastHandleReadsWhatTheRingsHold: a host's forecast model and its
// price ring hang side by side on the host's market, so models hand-fed the
// samples the rings hold give the handle's forecast to the last bit — over a
// job's clears on some hosts and, on the others, samples their sleeping
// markets replayed.
func TestForecastHandleReadsWhatTheRingsHold(t *testing.T) {
	const ticks = 300
	w := newWorld(t, 4)
	handle := w.agent.ForecastHandle()
	if _, err := w.agent.Submit(w.payToken(t, 100), request(2, 5*time.Hour), chunks(4, 30)); err != nil {
		t.Fatal(err)
	}
	w.eng.RunFor(ticks * w.cluster.Interval())
	behind := 0
	for _, ring := range w.agent.feed {
		if ring.Len() < ticks {
			behind++
		}
	}
	if behind == 0 {
		t.Fatal("no market slept: the test shows nothing about replayed samples")
	}
	got, err := handle(10 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	models := make([]predict.StreamingPredictor, len(w.agent.feed))
	for i, ring := range w.agent.feed {
		if ring.Len() != ticks {
			t.Fatalf("host %d: ring holds %d samples after the handle synced, want %d", i, ring.Len(), ticks)
		}
		if models[i], err = predict.NewStreaming(predict.StreamingAR, predict.PredictorConfig{
			Window: w.agent.cfg.FeedCapacity, Step: w.cluster.Interval(),
		}); err != nil {
			t.Fatal(err)
		}
		for _, smp := range ring.Samples() {
			if err := models[i].Observe(smp.Price, smp.At); err != nil {
				t.Fatal(err)
			}
		}
	}
	want, err := predict.ForecastMean(models, 10*time.Minute)
	if err != nil || got != want {
		t.Errorf("handle forecast %+v; models fed the rings' samples: %+v, %v", got, want, err)
	}
}
