package tycoongrid_test

// One benchmark per table and figure of the paper's evaluation section.
// Each iteration regenerates the full artifact (simulation + analysis), so
// ns/op is the cost of reproducing that experiment end to end:
//
//	go test -bench=. -benchmem
//
// The same harnesses are printable via `go run ./cmd/marketbench`.

import (
	"fmt"
	"testing"
	"time"

	"tycoongrid/internal/auction"
	"tycoongrid/internal/bank"
	"tycoongrid/internal/experiment"
	"tycoongrid/internal/metrics"
	"tycoongrid/internal/token"
	"tycoongrid/internal/tracing"
	"tycoongrid/internal/tsdb"
	"tycoongrid/internal/workload"
	"tycoongrid/internal/xrsl"
)

// BenchmarkTable1EqualFunds regenerates Table 1: five users with equal
// funding on 30 dual-CPU hosts; late arrivals receive lower QoS.
func BenchmarkTable1EqualFunds(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunBestResponseTable(experiment.Table1Params())
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Groups) == 0 {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkTable2TwoPoint regenerates Table 2: funding 100/100/500/500/500
// with a 5.5 h deadline; money buys latency.
func BenchmarkTable2TwoPoint(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunBestResponseTable(experiment.Table2Params())
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Groups) != 2 {
			b.Fatal("want two funding groups")
		}
	}
}

// BenchmarkFigure3NormalPrediction regenerates the guarantee-level capacity
// curves of Figure 3 from a fresh market trace.
func BenchmarkFigure3NormalPrediction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunFigure3(experiment.DefaultFigure3Params())
		if err != nil {
			b.Fatal(err)
		}
		if len(res.CurvesMHz) != 3 {
			b.Fatal("want three curves")
		}
	}
}

// BenchmarkFigure4ARForecast regenerates the AR(6)-vs-persistence epsilon
// comparison of Figure 4 on a 40 h batch-load trace.
func BenchmarkFigure4ARForecast(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunFigure4(experiment.DefaultFigure4Params())
		if err != nil {
			b.Fatal(err)
		}
		if res.EpsilonAR <= 0 {
			b.Fatal("degenerate epsilon")
		}
	}
}

// BenchmarkReplicatedFigure4 measures the replication runner: four seeded
// Figure 4 replications reduced into mean/CI aggregates, serial vs a
// four-worker pool. On a multi-core machine the parallel variant approaches
// a 4x speedup; the aggregates are byte-identical either way.
func BenchmarkReplicatedFigure4(b *testing.B) {
	p := experiment.DefaultFigure4Params()
	// Shrink the scenario so one iteration stays in benchmark territory
	// while still exercising the full world build per replication.
	p.Load.Hours = 6
	p.Load.World.Hosts = 4
	p.Order = 3
	p.HorizonSteps = 3
	p.Stride = 2
	p.FitWindow = 100
	p.ResampleSnapshots = 30
	spec := experiment.Figure4(p)
	for _, bc := range []struct {
		name    string
		workers int
	}{
		{"Serial", 1},
		{"Parallel4", 4},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				agg, err := experiment.Replicate(spec, experiment.ReplicationConfig{
					Reps: 4, Parallel: bc.workers, BaseSeed: 2006,
				})
				if err != nil {
					b.Fatal(err)
				}
				if len(agg.Mean) == 0 {
					b.Fatal("empty aggregate")
				}
			}
		})
	}
}

// BenchmarkFigure5Portfolio regenerates the risk-free vs equal-share
// portfolio comparison of Figure 5.
func BenchmarkFigure5Portfolio(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunFigure5(experiment.DefaultFigure5Params())
		if err != nil {
			b.Fatal(err)
		}
		if len(res.RiskFree) == 0 {
			b.Fatal("empty series")
		}
	}
}

// BenchmarkFigure6Windows regenerates the hour/day/week price-distribution
// windows of Figure 6 over a simulated week of diurnal load.
func BenchmarkFigure6Windows(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunFigure6(experiment.DefaultFigure6Params())
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Windows) != 3 {
			b.Fatal("want three windows")
		}
	}
}

// BenchmarkFigure7Approximation regenerates the window-approximation
// accuracy simulation of Figure 7 (Normal, Exponential, Beta inputs).
func BenchmarkFigure7Approximation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunFigure7(experiment.DefaultFigure7Params())
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Reports) != 3 {
			b.Fatal("want three distributions")
		}
	}
}

// BenchmarkAblationScheduler compares the market against the FIFO batch
// baseline on the Table 2 workload (DESIGN.md ablation A).
func BenchmarkAblationScheduler(b *testing.B) {
	p := experiment.Table2Params()
	p.SubJobs = 30
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunAblationScheduler(p)
		if err != nil {
			b.Fatal(err)
		}
		if res.Market.HighLatency <= 0 {
			b.Fatal("degenerate result")
		}
	}
}

// BenchmarkAblationCap compares utility-ranked vs bid-ranked host capping
// (DESIGN.md ablation B).
func BenchmarkAblationCap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunAblationCap()
		if err != nil {
			b.Fatal(err)
		}
		if res.UtilityRanked <= res.BidRanked {
			b.Fatal("ablation shape broke")
		}
	}
}

// BenchmarkSLACalibration prices SLAs from normal and empirical price models
// and measures realized violation rates (the paper's §7 future work).
func BenchmarkSLACalibration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunSLACalibration(experiment.DefaultSLAParams())
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 3 {
			b.Fatal("want three confidence levels")
		}
	}
}

// BenchmarkMetricsCounterInc measures a single-goroutine increment of a
// sharded counter, the cheapest operation the instrumentation performs.
func BenchmarkMetricsCounterInc(b *testing.B) {
	c := metrics.NewRegistry().Counter("bench_counter_total", "benchmark counter")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

// BenchmarkMetricsCounterIncParallel hammers one counter from every P; the
// per-shard cache-line padding is what keeps this from collapsing into a
// single contended word.
func BenchmarkMetricsCounterIncParallel(b *testing.B) {
	c := metrics.NewRegistry().Counter("bench_counter_total", "benchmark counter")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

// BenchmarkMetricsHistogramObserve measures one latency observation against
// the default bucket layout (bucket scan + count + CAS'd float sum).
func BenchmarkMetricsHistogramObserve(b *testing.B) {
	h := metrics.NewRegistry().Histogram("bench_seconds", "benchmark histogram", nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(0.042)
	}
}

// denseTickHosts is the busy tick the overhead benchmarks are priced against:
// BenchmarkClusterTickDense's world, the grid-dense workload's steady state.
const denseTickHosts = 300

// denseWorld300 is the grid-dense workload's steady state: 300 hosts, each with
// 8 live bids and 8 running tasks of jobs the agent manages, warmed until the
// VMs have booted and the scratch buffers reached their size. Every tick
// clears 300 books and books 2 400 charges on their jobs' tabs.
func denseWorld300(b *testing.B) *experiment.World {
	tr := tracing.New(tracing.WithCapacity(8))
	tr.SetSampleRatio(0)
	wc := experiment.PaperWorld()
	wc.Hosts, wc.Users, wc.Tracer = denseTickHosts, 1, tr
	wc.GrantPerUser = 1e9 * bank.Credit
	wc.PurgeIdleAfter = 10 * time.Minute
	w, err := experiment.NewWorld(wc)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < denseTickHosts; i++ { // 8 endless chunks each: Best Response spreads them 8 a host
		if _, err := w.SubmitApp(w.Users[0], 1e6*bank.Credit, 1e5*time.Hour, 8, 1e15, 8); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		w.Engine.RunFor(w.Cluster.Interval())
	}
	return w
}

// busyTickNs times b.N busy ticks of w and returns the mean.
func busyTickNs(b *testing.B, w *experiment.World) float64 {
	interval := w.Cluster.Interval()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Engine.RunFor(interval)
	}
	b.StopTimer()
	return float64(b.Elapsed().Nanoseconds()) / float64(b.N)
}

// BenchmarkAuctionClearMetricsOverhead quantifies what the instrumentation
// costs a busy tick. Each busy host's advance adds its finished tasks to a
// counter; once a sweep the plane adds the sweep's clears to
// auction_clears_total and to its shard's clears counter, and the cluster and
// the agent set their gauges and count the tick. No clear writes a metric of
// its own: a host's spot price is read from its market, not from a gauge. The
// reported overhead_% prices those operations, on their own registry, against
// one 300-host busy tick. The acceptance bar is overhead_% < 5.
func BenchmarkAuctionClearMetricsOverhead(b *testing.B) {
	w := denseWorld300(b)
	tickNs := busyTickNs(b, w)

	// Per host: the completed-task counter. Per sweep: three counters
	// (auction clears, shard clears, grid ticks) and four gauges (running
	// tasks, utilization, hosts down, and the agent's unbanked credits, which
	// is an Add).
	reg := metrics.NewRegistry()
	completed := reg.Counter("bench_completed_total", "probe")
	counters := []*metrics.Counter{reg.Counter("bench_a_total", "probe"), reg.Counter("bench_b_total", "probe"),
		reg.Counter("bench_c_total", "probe")}
	gauges := []*metrics.Gauge{reg.Gauge("bench_a", "probe"), reg.Gauge("bench_b", "probe"),
		reg.Gauge("bench_c", "probe"), reg.Gauge("bench_d", "probe")}
	const probes = 1 << 10
	probeStart := time.Now()
	for i := 0; i < probes; i++ {
		for h := 0; h < denseTickHosts; h++ {
			completed.Add(0)
		}
		for _, c := range counters {
			c.Add(denseTickHosts)
		}
		for _, g := range gauges {
			g.Add(0.5)
		}
	}
	metricNs := float64(time.Since(probeStart).Nanoseconds()) / probes

	b.ReportMetric(tickNs, "tick_ns")
	b.ReportMetric(metricNs, "metric_ns")
	b.ReportMetric(100*metricNs/tickNs, "overhead_%")
}

// BenchmarkAuctionClearTelemetryOverhead prices the tick's own latency
// telemetry while a tsdb collector self-scrapes the process registry
// concurrently, as a live daemon does. The clears are not timed one by one:
// the tick reads the wall clock four times and observes
// grid_tick_phase_seconds once for each of its three passes (clear, settle,
// advance), however many markets it clears. The probe prices those seven
// operations against one 300-host busy tick; the acceptance bar is
// overhead_% < 2. (Timed per clear — two clock reads, a scope load and an
// exemplar observation each — this read 2.5–3.2 % of a 64-bid clear.)
func BenchmarkAuctionClearTelemetryOverhead(b *testing.B) {
	w := denseWorld300(b)

	// Self-scrape loop: collect the whole default registry into a tsdb on a
	// tight cadence so the ticks race real snapshot traffic.
	collector := tsdb.NewCollector(metrics.Default(), tsdb.NewDB(512), time.Now)
	stopScrape := make(chan struct{})
	scrapeDone := make(chan struct{})
	go func() {
		defer close(scrapeDone)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		collector.Collect()
		for {
			select {
			case <-stopScrape:
				return
			case <-tick.C:
				collector.Collect()
			}
		}
	}()
	defer func() { close(stopScrape); <-scrapeDone }()

	tickNs := busyTickNs(b, w)

	reg := metrics.NewRegistry()
	phases := reg.HistogramVec("bench_phase_seconds", "probe", []float64{1e-5, 1e-4, 1e-3, 0.01, 0.1, 1}, "phase")
	clearH, settleH, advanceH := phases.With("clear"), phases.With("settle"), phases.With("advance")
	const probes = 1 << 18
	probeStart := time.Now()
	for i := 0; i < probes; i++ {
		t0 := time.Now()
		t1 := time.Now()
		t2 := time.Now()
		t3 := time.Now()
		clearH.Observe(t1.Sub(t0).Seconds())
		settleH.Observe(t2.Sub(t1).Seconds())
		advanceH.Observe(t3.Sub(t2).Seconds())
	}
	telemetryNs := float64(time.Since(probeStart).Nanoseconds()) / probes

	overhead := 100 * telemetryNs / tickNs
	b.ReportMetric(tickNs, "tick_ns")
	b.ReportMetric(telemetryNs, "telemetry_ns")
	b.ReportMetric(overhead, "overhead_%")
	if overhead >= 2 {
		b.Errorf("phase telemetry costs %.3f%% of a busy tick, want < 2%%", overhead)
	}
}

// idleWorld10k is a 10 000-host world wired as experiment.NewWorld wires it
// (price-feed observers on every market, VM reaping on), warmed by one idle
// simulated minute: every market has cleared once and gone to sleep.
const idleWorldHosts = 10000

func idleWorld10k(b *testing.B) *experiment.World {
	tr := tracing.New(tracing.WithCapacity(8))
	tr.SetSampleRatio(0)
	wc := experiment.PaperWorld()
	wc.Hosts, wc.Users, wc.Tracer = idleWorldHosts, 1, tr
	wc.PurgeIdleAfter = 10 * time.Minute
	wc.GrantPerUser = 1e8 * bank.Credit // the one user pays for every iteration
	w, err := experiment.NewWorld(wc)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		w.Engine.RunFor(w.Cluster.Interval())
	}
	return w
}

// BenchmarkClusterTickIdle10k is one tick of a 10 000-host world with every
// book empty: the job path's cost per idle host-tick, which is what a wide
// grid used to spend its time on (≈ 390 ns, bound by the cache misses of
// walking 10 000 hosts' scattered state). A tick visits awake markets and
// busy hosts only, so ns/host-tick here is the tick's fixed cost spread over
// hosts it never touches — most of it the four clock reads that time the
// tick's phases.
func BenchmarkClusterTickIdle10k(b *testing.B) {
	w := idleWorld10k(b)
	interval := w.Cluster.Interval()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Engine.RunFor(interval)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/idleWorldHosts, "ns/host-tick")
}

// BenchmarkClusterTick10k800Busy is the same world in the shape the grid-wide
// workload holds it in: 800 hosts with a live bid and a running task, 9 200
// asleep. ns/busy-host-tick is what a host that does have work costs a tick:
// a real clear with its observers, a charge routed to the agent's hook, and
// the task's progress.
func BenchmarkClusterTick10k800Busy(b *testing.B) {
	const busy = 800
	w := busyWorld10k(b, busy)
	interval := w.Cluster.Interval()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Engine.RunFor(interval)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/busy, "ns/busy-host-tick")
}

// busyWorld10k is idleWorld10k with busy hosts, spread evenly over the ID
// order, each holding a live bid and running an endless task, one tick on.
func busyWorld10k(b *testing.B, busy int) *experiment.World {
	w := idleWorld10k(b)
	ids := w.Cluster.HostIDs()
	far := w.Engine.Now().Add(1e6 * time.Hour)
	for i := 0; i < busy; i++ {
		host := ids[i*len(ids)/busy]
		bidder := auction.BidderID(fmt.Sprintf("busy-%03d", i))
		if _, err := w.Cluster.PlaceBid(host, bidder, 1e6*bank.Credit, far); err != nil {
			b.Fatal(err)
		}
		if _, err := w.Cluster.StartTask(host, bidder, nil, 1e18, nil); err != nil {
			b.Fatal(err)
		}
	}
	w.Engine.RunFor(w.Cluster.Interval())
	return w
}

// BenchmarkClusterTickDense is one tick of the grid-dense workload's steady
// state (denseWorld300): every one of the tick's 2 400 charges is booked on
// its job's tab (the bank hears of a tab when the job's escrow is released,
// never in a tick). BenchmarkClusterTick10k800Busy books one foreign bid a
// host — a one-line book, nothing settled — which is why it read 1.4 µs a
// busy host while the workload paid 7: ns/busy-host-tick here is the clear of
// an 8-bid book, 8 tab rows found and added to, and 8 tasks' progress (and
// the agent's pump over 300 running jobs). ≈ 1.2–1.8 µs since tasks and
// charges find their rows through what the last tick remembered; ≈ 1.7–2.9 µs
// while each was a binary search and a map lookup and every clear timed
// itself; ≈ 3.6–4.1 µs while every charge was a bank move.
func BenchmarkClusterTickDense(b *testing.B) {
	w := denseWorld300(b)
	b.ReportAllocs()
	b.ReportMetric(busyTickNs(b, w)/denseTickHosts, "ns/busy-host-tick")
}

// BenchmarkSubmit10kIdle is one submission of the paper's job (8 chunks of 10
// CPU minutes on at most 8 nodes, 50 credits, two-hour deadline) into the
// same world with every market asleep: verify the token, fund escrow, price
// the candidates, Best Response, 8 bids, 8 tasks. The agent reads which
// markets are awake — none — and hands Best Response the 10 000 sleeping
// hosts as one run, so memory is not per host; time still is, because
// core.solve admits a run one host at a time (≈ 257 µs at 10 000 hosts,
// ≈ 648 µs at 100 000). It was ≈ 1.05 ms and 1.2 MB when every
// candidate was keyed, ranked and made an allocation of, and ≈ 0.46–0.6 ms
// while the agent still asked each of the 10 000 markets its capacity and
// price and Best Response compared their IDs to find the run. Each job is
// cancelled and its markets ticked back to sleep off the clock, so ns/op and
// B/op are per submission.
func BenchmarkSubmit10kIdle(b *testing.B) {
	benchmarkSubmit(b, idleWorld10k(b))
}

// BenchmarkSubmit10k800Awake is a submission in the shape grid-wide makes
// mid-wave: 800 hosts awake with a bid and a task, 9 200 asleep between
// them. The candidates are the 800 awake hosts, each priced by its market,
// and the runs of sleeping hosts between them: the cost is per awake host.
func BenchmarkSubmit10k800Awake(b *testing.B) {
	benchmarkSubmit(b, busyWorld10k(b, 800))
}

func benchmarkSubmit(b *testing.B, w *experiment.World) {
	interval := w.Cluster.Interval()
	jr := &xrsl.JobRequest{JobName: "bench", Executable: "scan.sh", Count: 8, WallTime: 2 * time.Hour}
	chunks := make([]float64, 8)
	for i := range chunks {
		chunks[i] = 10 * 60 * workload.ReferenceMHz
	}
	toks := make([]token.Token, b.N)
	for i := range toks {
		tok, err := w.MintToken(w.Users[0], 50*bank.Credit)
		if err != nil {
			b.Fatal(err)
		}
		toks[i] = tok
	}
	b.ReportAllocs()
	b.ResetTimer()
	for _, tok := range toks {
		job, err := w.Agent.Submit(tok, jr, chunks)
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		if err := w.Agent.Cancel(job.ID); err != nil {
			b.Fatal(err)
		}
		w.Engine.RunFor(interval)
		b.StartTimer()
	}
}
