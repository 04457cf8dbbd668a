package agent

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

	"tycoongrid/internal/grid"
	"tycoongrid/internal/metrics"
	"tycoongrid/internal/predict"
	"tycoongrid/internal/pricefeed"
	"tycoongrid/internal/sim"
	"tycoongrid/internal/strategy"
	"tycoongrid/internal/tsdb"
)

// counter reads the named counter out of a snapshot of the default registry.
func counter(name string) uint64 {
	for _, c := range metrics.Default().Snapshot().Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// hangRing hangs a witness ring of its own on the market of the agent's first
// host, beside the market's history, to show what that history would have
// seen had it been there.
func hangRing(t *testing.T, w *world) *tsdb.Ring {
	t.Helper()
	h, err := w.cluster.Host(w.agent.HostIDs()[0])
	if err != nil {
		t.Fatal(err)
	}
	ring := tsdb.NewRing(w.agent.cfg.Window)
	h.Market.Observe(pricefeed.Observer(ring))
	return ring
}

// hostRing returns the market ring of the agent's i-th host, nil if no reader
// has hung one.
func hostRing(a *Agent, i int) *tsdb.Ring { return a.host(i).Market.History(0) }

// readsNothing reports whether no market of the agent's partition keeps a
// history and the agent holds no forecast model.
func readsNothing(a *Agent) bool {
	for i := range a.cfg.Hosts {
		if hostRing(a, i) != nil {
			return false
		}
	}
	return a.models == nil
}

// TestAgentRecordsPriceHistory: a history handle asked for before the first
// clear sees every tick of every partition host.
func TestAgentRecordsPriceHistory(t *testing.T) {
	rejected := counter("pricefeed_samples_rejected_total")
	w := newWorld(t, 2)
	history := w.agent.HistoryHandle()
	if h := history(); len(h) != 0 {
		t.Fatalf("history before any tick: %v", h)
	}
	if _, err := w.agent.Submit(w.payToken(t, 100), request(2, 5*time.Hour), chunks(4, 30)); err != nil {
		t.Fatal(err)
	}
	const ticks = 120
	w.eng.RunFor(ticks * w.cluster.Interval())

	hist := history()
	if len(hist) != ticks {
		t.Fatalf("history holds %d ticks after %d auction ticks", len(hist), ticks)
	}
	for i, p := range hist {
		if p <= 0 || math.IsNaN(p) {
			t.Fatalf("history[%d] = %v", i, p)
		}
	}
	// Per-host histories exist for every partition host and match in length.
	for i, id := range w.agent.HostIDs() {
		if n := hostRing(w.agent, i).Len(); n != ticks {
			t.Errorf("host %s history len %d, want %d", id, n, ticks)
		}
	}
	// Asking again reads the same rings, and a market's ring raised past the
	// window does not lengthen the history.
	hostRing(w.agent, 0).Raise(10 * ticks)
	if again := w.agent.HistoryHandle()(); !slices.Equal(again, hist) {
		t.Errorf("second handle reads %d ticks, want the first handle's %d", len(again), len(hist))
	}
	if got := counter("pricefeed_samples_rejected_total") - rejected; got != 0 {
		t.Errorf("feed rejected %d samples", got)
	}
}

// TestHistoryHandleRequestedLateHasNoBackfill is the mirror of the forecast
// rule: the markets of an agent nobody reads carry no history, however many
// clears flow, and a handle first asked after prices have flowed holds only
// the clears after it. A witness ring hung on one host's market from the
// start shows what flowed.
func TestHistoryHandleRequestedLateHasNoBackfill(t *testing.T) {
	w := newWorld(t, 2)
	all := hangRing(t, w)
	if _, err := w.agent.Submit(w.payToken(t, 100), request(2, 5*time.Hour), chunks(4, 30)); err != nil {
		t.Fatal(err)
	}
	w.eng.RunFor(200 * w.cluster.Interval())
	if !readsNothing(w.agent) {
		t.Fatal("price rings hung for an agent whose history was never requested")
	}

	history := w.agent.HistoryHandle()
	if h := history(); len(h) != 0 {
		t.Fatalf("a handle asked for after 200 clears holds %d ticks, want none", len(h))
	}
	if all.Len() != 200 {
		t.Fatalf("the ring hung from the start holds %d ticks, want 200", all.Len())
	}
	w.eng.RunFor(50 * w.cluster.Interval())
	if n := len(history()); n != 50 {
		t.Errorf("the late handle holds %d ticks 50 clears after it, want 50", n)
	}
	samples := all.Since(math.MinInt64)
	if got, want := hostRing(w.agent, 0).Since(math.MinInt64), samples[len(samples)-50:]; !slices.Equal(got, want) {
		t.Errorf("host 0's ring holds %v, want the last 50 samples %v", got, want)
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
// sides. An agent nobody forecasts from carries no predictor and no ring,
// however many clears flow — an eager attach in New would put one AR update
// and one ring write per host per tick on every world without a
// meta-scheduler. A handle asked for before the first clear hangs the rings
// beside its models and has seen every sample they hold.
func TestForecastHandleAttachesOnFirstRequest(t *testing.T) {
	idle := newWorld(t, 2)
	recorded := counter("pricefeed_samples_recorded_total")
	idle.eng.RunFor(100 * idle.cluster.Interval())
	idle.cluster.Sync()
	if !readsNothing(idle.agent) {
		t.Fatal("predictors or rings attached to an agent whose handles were never requested")
	}
	if n := counter("pricefeed_samples_recorded_total") - recorded; n != 0 {
		t.Fatalf("100 ticks of an agent nobody reads recorded %d samples, want 0", n)
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
	for i := range w.agent.cfg.Hosts {
		if n := hostRing(w.agent, i).Len(); n != 100 {
			t.Errorf("host %d: the ring beside the model holds %d samples, want 100", i, n)
		}
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

// TestNewAllocationBound is the count behind the rules above at grid-wide's
// size: constructing an agent over 10 000 hosts hangs nothing on their
// markets — no price ring, no predictor — and allocates only the partition's
// own slices, no object per host.
func TestNewAllocationBound(t *testing.T) {
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
	// One call, counted by MemStats: AllocsPerRun would run New more than
	// once on one cluster, each agent chaining its hooks onto the last's.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	a, err := New(cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	perHost := float64(after.Mallocs-before.Mallocs) / hosts
	bytesPerHost := float64(after.TotalAlloc-before.TotalAlloc) / hosts
	if !readsNothing(a) {
		t.Error("New attached predictors or price rings")
	}
	// The partition over the whole cluster is the cluster's own ids and
	// hosts, so what is left is its index from cluster position to partition
	// position: 0.00 objects and 4 B a host. It was ≈ 78 B while the agent
	// kept its ids, its hosts and settle's memo a host. A ring and its
	// observer closure, which New hung on every host until a reader had to
	// ask for them, are 2.0 objects and ≈ 100 B more; a streaming AR model
	// and its observer are 7 objects more.
	if perHost > 0.1 || bytesPerHost > 8 {
		t.Errorf("agent.New allocates %.2f objects and %.1f B per host, want <= 0.1 and <= 8", perHost, bytesPerHost)
	} else {
		t.Logf("agent.New allocates %.2f objects and %.1f B per host", perHost, bytesPerHost)
	}
}

// TestForecastHandleRequestedLateHasNoBackfill pins what a late first request
// costs: the predictors, and the rings the handle hangs beside them, see only
// the clears after the attach, so the handle reports ErrInsufficientHistory —
// which prediction strategies score as the current price — although prices
// have flowed all along, as a ring hung on one host's market from the start
// shows.
func TestForecastHandleRequestedLateHasNoBackfill(t *testing.T) {
	w := newWorld(t, 2)
	all := hangRing(t, w)
	w.eng.RunFor(200 * w.cluster.Interval())
	handle := w.agent.ForecastHandle()
	if all.Len() != 200 {
		t.Fatalf("the ring hung from the start holds %d ticks, want 200", all.Len())
	}
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

	// Only what came after the attach counts: a late-attached model and one
	// fed from the start, on the same market, disagree until the window has
	// turned over.
	w.eng.RunFor(50 * w.cluster.Interval())
	late, err := handle(10 * time.Minute)
	if err != nil {
		t.Fatalf("forecast 50 clears after the attach: %v", err)
	}
	if n := hostRing(w.agent, 0).Len(); n != 50 {
		t.Errorf("the ring beside host 0's model holds %d samples, want the 50 after the attach", n)
	}
	sp, err := predict.NewStreaming(predict.StreamingAR, predict.PredictorConfig{
		Window: w.agent.cfg.Window, Step: w.cluster.Interval(),
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := all.Since(math.MinInt64)
	for _, smp := range seen[len(seen)-50:] {
		if err := sp.Observe(smp.V, time.Unix(0, smp.T)); err != nil {
			t.Fatal(err)
		}
	}
	want, err := predict.ForecastMean([]*predict.StreamAR{sp}, 10*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(late.Mean-want.Mean) > 1e-12 {
		t.Errorf("late handle mean = %v, want %v (the last 50 samples alone)", late.Mean, want.Mean)
	}
}

// The same rule when the markets are asleep: after fifty idle ticks the
// partition's markets owe the ring hung on host 0's market fifty samples
// each. Asking for the handle pays that debt before the agent's rings and
// predictors exist, so the market's ring and the models still see nothing
// older than themselves.
func TestForecastHandleFirstTouchAfterIdleTicks(t *testing.T) {
	w := newWorld(t, 2)
	owed := hangRing(t, w)
	w.eng.RunFor(50 * w.cluster.Interval())
	if n := owed.Len(); n >= 50 {
		t.Fatalf("the ring already holds %d samples: the market never slept and the test shows nothing", n)
	}
	handle := w.agent.ForecastHandle()
	if n := owed.Len(); n != 50 {
		t.Errorf("the ring hung from the start holds %d samples once the handle exists, want all 50", n)
	}
	if n := hostRing(w.agent, 0).Len(); n != 0 {
		t.Errorf("the market's ring holds %d samples right after a late attach, want none: it was fed replayed samples", n)
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
	for i := range w.agent.cfg.Hosts {
		if hostRing(w.agent, i).Len() < ticks {
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
	models := make([]*predict.StreamAR, len(w.agent.cfg.Hosts))
	for i := range w.agent.cfg.Hosts {
		r := hostRing(w.agent, i)
		if r.Len() != ticks {
			t.Fatalf("host %d: ring holds %d samples after the handle synced, want %d", i, r.Len(), ticks)
		}
		if models[i], err = predict.NewStreaming(predict.StreamingAR, predict.PredictorConfig{
			Window: w.agent.cfg.Window, Step: w.cluster.Interval(),
		}); err != nil {
			t.Fatal(err)
		}
		for _, smp := range r.Since(math.MinInt64) {
			if err := models[i].Observe(smp.V, time.Unix(0, smp.T)); err != nil {
				t.Fatal(err)
			}
		}
	}
	want, err := predict.ForecastMean(models, 10*time.Minute)
	if err != nil || got != want {
		t.Errorf("handle forecast %+v; models fed the rings' samples: %+v, %v", got, want, err)
	}
}
