package experiment

import (
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"
	"unsafe"

	"tycoongrid/internal/mechanism"
	"tycoongrid/internal/pricefeed"
	"tycoongrid/internal/strategy"
	"tycoongrid/internal/tsdb"
)

// shortStrategiesParams shrinks the scenario so the full stack still
// exercises waves, steady load and meta-routed measured jobs, but runs in
// test time: 10 hours on the same 6-host/3-partition shape.
func shortStrategiesParams() StrategiesParams {
	p := DefaultStrategiesParams()
	p.Hours = 10
	p.MeasureStart = time.Hour
	p.MeasureEvery = 45 * time.Minute
	p.MeasureDeadline = 2 * time.Hour
	p.World.Tracer = quietTracer()
	return p
}

func TestRunStrategiesShort(t *testing.T) {
	p := shortStrategiesParams()
	p.Strategies = []string{strategy.CurrentPrice, strategy.Portfolio}
	res, err := RunStrategies(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outcomes) != 2 {
		t.Fatalf("outcomes = %d", len(res.Outcomes))
	}
	for _, o := range res.Outcomes {
		if o.Jobs == 0 {
			t.Errorf("%s: no measured jobs finished", o.Strategy)
		}
		if o.MeanCost <= 0 || math.IsNaN(o.MeanCost) {
			t.Errorf("%s: mean cost = %v", o.Strategy, o.MeanCost)
		}
		if o.MeanMakespanMin <= 0 {
			t.Errorf("%s: makespan = %v", o.Strategy, o.MeanMakespanMin)
		}
		if len(o.Picks) == 0 {
			t.Errorf("%s: no picks recorded", o.Strategy)
		}
	}
	// Rendering and CSV export round-trip.
	s := res.String()
	for _, o := range res.Outcomes {
		if !strings.Contains(s, o.Strategy) {
			t.Errorf("String() missing %q:\n%s", o.Strategy, s)
		}
	}
	dir := t.TempDir()
	if err := res.WriteCSV(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := filepath.Glob(filepath.Join(dir, "strategies.csv")); err != nil {
		t.Fatal(err)
	}
}

// TestRunStrategiesDeterministic: the same params and seed must reproduce
// byte-identical results — the property the replication harness depends on.
func TestRunStrategiesDeterministic(t *testing.T) {
	p := shortStrategiesParams()
	p.Strategies = []string{strategy.PredictedMean}
	a, err := RunStrategies(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunStrategies(p)
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("non-deterministic:\n%s\nvs\n%s", a.String(), b.String())
	}
}

// TestPredictionBeatsReaction gates the sign of the paper's headline (§5)
// under each clearing mechanism: over four replications of the catalog's
// strategies scenario, jobs routed on the predicted mean price cost less than
// jobs routed on the current price, with the two 95% confidence intervals
// apart. Posted-price takes eight: since Best Response stopped funding hosts
// that would admit its bid at share 0, the reactive jobs no longer sit
// unadmitted, the gap narrowed and current-price is the noisier column
// (EXPERIMENTS.md, "Under each clearing mechanism"). Under VCG the sign flips
// — reacting is the cheaper policy there (EXPERIMENTS.md, "Telemetry, once")
// — and the cell is pinned in that measured direction, so a change that
// closes or reverses the gap has to say so.
func TestPredictionBeatsReaction(t *testing.T) {
	if testing.Short() {
		t.Skip("sixteen replications of the strategies scenario take ~13 s")
	}
	for _, c := range []struct {
		mechanism      string
		reps           int
		predictionWins bool
	}{
		{mechanism.Proportional, 4, true},
		{mechanism.PostedPrice, 8, true},
		{mechanism.VCG, 4, false},
	} {
		t.Run(c.mechanism, func(t *testing.T) {
			p := DefaultStrategiesParams()
			p.World.Mechanism = c.mechanism
			agg, err := Replicate(Strategies(p), ReplicationConfig{Reps: c.reps, Parallel: 2, BaseSeed: 2006})
			if err != nil {
				t.Fatal(err)
			}
			col := func(name string) (mean, ci float64) {
				for i, n := range agg.Cols {
					if n == name {
						return agg.Mean[i], agg.CI95[i]
					}
				}
				t.Fatalf("no column %q in %v", name, agg.Cols)
				return 0, 0
			}
			pm, pmCI := col("predicted_mean_cost")
			cp, cpCI := col("current_price_cost")
			t.Logf("predicted-mean %.2f ± %.2f, current-price %.2f ± %.2f credits a job", pm, pmCI, cp, cpCI)
			if c.predictionWins && pm+pmCI >= cp-cpCI {
				t.Errorf("predicted-mean costs %.2f ± %.2f a job, current-price %.2f ± %.2f: prediction does not beat reaction",
					pm, pmCI, cp, cpCI)
			}
			if !c.predictionWins && cp+cpCI >= pm-pmCI {
				t.Errorf("predicted-mean costs %.2f ± %.2f a job, current-price %.2f ± %.2f: the measured flip (reaction cheaper) no longer holds",
					pm, pmCI, cp, cpCI)
			}
		})
	}
}

func TestStrategiesColumns(t *testing.T) {
	spec, ok := Lookup("strategies")
	if !ok {
		t.Fatal("strategies is not in the catalog")
	}
	if spec.Name != "strategies" {
		t.Errorf("name = %q", spec.Name)
	}
	// 4 metrics per registered strategy.
	want := 4 * len(strategy.Names())
	if len(spec.Cols) != want {
		t.Errorf("cols = %d, want %d: %v", len(spec.Cols), want, spec.Cols)
	}
	for _, c := range spec.Cols {
		if strings.Contains(c, "-") {
			t.Errorf("column %q not CSV-friendly", c)
		}
	}
}

// TestStrategiesWorldHonoursWorldConfig: the partitioned world stands on the
// same testbed as NewWorld, so the WorldConfig fields its own copy of the
// builder used to drop — clearing mechanism, VM boot overhead — reach the
// cluster, and a field the cluster rejects fails the run instead of being
// ignored. The agents' price rings are sized to the prediction window.
func TestStrategiesWorldHonoursWorldConfig(t *testing.T) {
	p := shortStrategiesParams()
	p.World.Mechanism = "vcg"
	p.World.CreateOverhead = 30 * time.Second
	w, err := buildStrategiesWorld(p, strategy.CurrentPrice)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range w.Cluster.HostIDs() {
		h, err := w.Cluster.Host(id)
		if err != nil {
			t.Fatal(err)
		}
		if got := h.Market.MechanismName(); got != "vcg" {
			t.Errorf("%s clears by %q, want vcg", id, got)
		}
		if h.Spec.CreateOverhead != 30*time.Second {
			t.Errorf("%s boot overhead = %v, want 30s", id, h.Spec.CreateOverhead)
		}
	}
	// Past a window of clears, each partition's history is exactly the window.
	w.Engine.RunFor(time.Duration(p.Window+10) * w.Cluster.Interval())
	for i, ag := range w.Agents {
		if got := len(ag.HistoryHandle()()); got != p.Window {
			t.Errorf("partition %d holds %d samples, want the window %d", i, got, p.Window)
		}
	}

	p = shortStrategiesParams()
	p.World.Mechanism = "no-such-mechanism"
	p.Strategies = []string{strategy.CurrentPrice}
	if _, err := RunStrategies(p); err == nil {
		t.Error("unknown mechanism accepted by the strategies world")
	}
}

// TestStrategiesRingAllocationBound: the strategies world's price rings hold
// what its volatility column reads, not the run. A run of H hours and one of
// 4H hold rings of the same capacity, each full and so of the same bytes a
// host, and that capacity is at most two measured deadlines and a cadence of
// ticks (the longest a job's window waits for the sweep that reads it) or the
// agents' window. While the rings held the whole trace, the 4H run's were
// four times the H run's.
func TestStrategiesRingAllocationBound(t *testing.T) {
	const hours = 3
	p := shortStrategiesParams()
	p.Strategies = []string{strategy.CurrentPrice}
	p.MeasureStart, p.MeasureEvery, p.MeasureDeadline, p.MeasureSubJobs = time.Hour, 30*time.Minute, time.Hour, 2
	type rings struct{ capacity, hostBytes int }
	measure := func(h float64) rings {
		t.Helper()
		p.Hours = h
		w, err := buildStrategiesWorld(p, strategy.CurrentPrice)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.run(p, strategy.CurrentPrice); err != nil {
			t.Fatalf("%v h: %v", h, err)
		}
		w.Cluster.Sync()
		var r rings
		for _, id := range w.Cluster.HostIDs() {
			ring := w.history(id, 0)
			r.capacity = max(r.capacity, ring.Capacity())
			r.hostBytes += ring.Len() * int(unsafe.Sizeof(tsdb.Point{}))
		}
		r.hostBytes /= len(w.Cluster.HostIDs())
		bound := max(p.Window, int((2*p.MeasureDeadline+p.MeasureEvery)/w.Cluster.Interval())+1)
		if r.capacity > bound {
			t.Errorf("a %v h run holds rings of %d ticks, want at most %d", h, r.capacity, bound)
		}
		return r
	}
	short, long := measure(hours), measure(4*hours)
	t.Logf("%d h: rings of %d ticks, %d B a host; %d h: %d ticks, %d B a host",
		hours, short.capacity, short.hostBytes, 4*hours, long.capacity, long.hostBytes)
	if short != long {
		t.Errorf("rings grow with the run: %d ticks and %d B a host over %d h, %d ticks and %d B over %d h",
			short.capacity, short.hostBytes, hours, long.capacity, long.hostBytes, 4*hours)
	}
}

// TestPartitionPriceStdRefusesALostWindow: a measured job's volatility is
// read from its partition's rings only while they hold the whole window. A
// window whose first ticks a ring has pushed out fails, where reading what is
// left would score a shorter window; one the rings hold is read.
func TestPartitionPriceStdRefusesALostWindow(t *testing.T) {
	p := shortStrategiesParams()
	w, err := buildStrategiesWorld(p, strategy.CurrentPrice)
	if err != nil {
		t.Fatal(err)
	}
	capacity := w.history(w.partitions[1][0], 0).Capacity()
	interval := w.Cluster.Interval()
	w.Engine.RunFor(time.Duration(capacity+60) * interval)
	now := w.Engine.Now()
	if _, ok, err := w.partitionPriceStd(1, now.Add(-time.Duration(capacity-1)*interval), now); err != nil || !ok {
		t.Fatalf("a window the rings hold: ok %v, err %v", ok, err)
	}
	_, _, err = w.partitionPriceStd(1, now.Add(-time.Duration(capacity+30)*interval), now)
	if err == nil || !strings.Contains(err.Error(), "no longer holds the window") {
		t.Fatalf("a window the rings lost the start of: err %v, want it refused", err)
	}
}

// TestStrategiesFailsARefusedSample: a sample a market's ring refused fails
// the strategies run, as it fails RunLoad's: the rings push old samples out
// by design, but never drop one silently.
func TestStrategiesFailsARefusedSample(t *testing.T) {
	p := shortStrategiesParams()
	w, err := buildStrategiesWorld(p, strategy.CurrentPrice)
	if err != nil {
		t.Fatal(err)
	}
	ring := w.history(w.partitions[1][0], 0)
	if err := w.Engine.After(3*time.Hour, func() {
		w.Cluster.Sync()
		pricefeed.Observer(ring)(-1, w.Engine.Now().Add(time.Second))
	}); err != nil {
		t.Fatal(err)
	}
	_, err = w.run(p, strategy.CurrentPrice)
	if err == nil || !strings.Contains(err.Error(), "refused 1 samples") {
		t.Fatalf("run = %v, want the negative price refused", err)
	}
}
