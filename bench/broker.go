package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"sync"
	"time"

	"tycoongrid/internal/experiment"
	"tycoongrid/internal/metrics"
	"tycoongrid/internal/strategy"
	"tycoongrid/internal/tracing"
)

// timedStrategy is how broker-predict times the broker's matchmaking
// decision from outside: RunStrategies is one opaque call, but strategies
// are plug-ins, so the benchmark registers predicted-mean behind a wrapper
// that reads the clock around every Pick and changes nothing else.
type timedStrategy struct {
	strategy.Strategy
	log *pickLog
}

type pickSample struct{ start, end time.Time }

// pickLog is what the wrapper records: every pick, and a slice mark every
// brokerSlice picks (one pick per measured job, one job per market tick).
type pickLog struct {
	picks []pickSample
	marks []mark
}

const brokerSlice = 100

func (t timedStrategy) Pick(cands []strategy.Candidate) (strategy.Pick, error) {
	if n := len(t.log.picks); n%brokerSlice == 0 {
		t.log.marks = append(t.log.marks, cut(n, selfCPU))
	}
	t0 := time.Now()
	p, err := t.Strategy.Pick(cands)
	t.log.picks = append(t.log.picks, pickSample{t0, time.Now()})
	return p, err
}

const timedPredictedMean = "bench-timed-predicted-mean"

var (
	brokerLog      pickLog
	registerBroker sync.Once
)

func runBroker(cfg runConfig) (*outcome, error) {
	registerBroker.Do(func() {
		strategy.Register(timedPredictedMean, func(c strategy.Config) strategy.Strategy {
			inner, err := strategy.New(strategy.PredictedMean, c)
			if err != nil {
				panic(err) // the built-in strategy is always registered
			}
			return timedStrategy{inner, &brokerLog}
		})
	})
	brokerLog = pickLog{}
	tracing.Default().SetSampleRatio(0)

	// The strategies scenario at broker scale: 24 partitions to choose from
	// and a measured job every 10 s, so the prediction suite is the hot path.
	// Predictor, window and streaming stay at whatever the defaults are.
	p := experiment.DefaultStrategiesParams()
	p.World.Hosts, p.Partitions, p.World.Users, p.World.Seed = 96, 24, 12, cfg.Seed
	p.Strategies = []string{timedPredictedMean}
	p.MeasureEvery = 10 * time.Second
	p.MeasureBudget, p.MeasureSubJobs, p.MeasureChunkMin, p.MeasureMaxNodes = 1, 1, 2, 1
	p.MeasureDeadline = time.Hour
	// Measured jobs run from hour 2 until one deadline before the end; the
	// window between is what the requested seconds buy.
	p.Hours = 3 + 0.5*cfg.Seconds
	setupRepeats := 15
	if cfg.Toy {
		p.World.Hosts, p.Partitions, p.World.Users, p.Hours = 8, 4, 4, 3.25
		setupRepeats = 2
	}

	// RunStrategies builds its world inside the call; set-up is the time to
	// build the same cluster through the public constructor.
	setup, err := medianSetup(cfg.Workload, setupRepeats, func() error {
		_, err := experiment.NewWorld(p.World)
		return err
	})
	if err != nil {
		return nil, err
	}
	runtime.GC()

	var msBefore, msAfter runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	snapBefore := metrics.Default().Snapshot()
	start := time.Now()
	res, err := experiment.RunStrategies(p)
	wall := time.Since(start)
	if err != nil {
		return nil, err
	}
	brokerPicks := brokerLog.picks
	// Close the last slice; it also holds the drain after the last job.
	brokerLog.marks = append(brokerLog.marks, cut(len(brokerPicks), selfCPU))
	delta := metrics.Default().Snapshot().Delta(snapBefore)
	runtime.ReadMemStats(&msAfter)

	o := res.Outcomes[0]
	out := newOutcome()
	out.attempted, out.failed = o.Jobs+o.Failed, o.Failed
	if o.Failed != 0 {
		out.violate("%d of %d measured jobs failed or never finished", o.Failed, o.Jobs+o.Failed)
	}
	if math.IsNaN(o.PredMAE) || math.IsInf(o.PredMAE, 0) {
		out.violate("prediction error is %v", o.PredMAE)
	}
	if len(brokerPicks) < o.Jobs {
		out.violate("%d picks timed for %d jobs: the timed strategy was bypassed", len(brokerPicks), o.Jobs)
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%x/%x", o.Jobs, math.Float64bits(o.MeanCost), math.Float64bits(o.MeanMakespanMin))
	digest := h.Sum64() & (1<<48 - 1)
	out.info("sim.digest %012x", digest)
	out.info("measured jobs %d, mean cost %.4f credits, makespan %.1f min, pred MAE %.6f", o.Jobs, o.MeanCost, o.MeanMakespanMin, o.PredMAE)

	pickNs := make([]int64, len(brokerPicks))
	for i, s := range brokerPicks {
		pickNs[i] = s.end.Sub(s.start).Nanoseconds()
	}
	secs := wall.Seconds()
	err = out.measured(cfg.Workload, setup, brokerLog.marks, [][]float64{chunkQuantiles(pickNs, brokerSlice, 0.50)},
		[][]float64{chunkQuantiles(pickNs, brokerSlice, 0.90)}, os.Getpid())
	if err != nil {
		return nil, err
	}
	out.info("op = one matchmaking decision (Strategy.Pick over %d partitions); tail = p90; slice = %d consecutive jobs", p.Partitions, brokerSlice)
	out.info("whole run: %.2f jobs/s over %.2fs", float64(o.Jobs)/secs, secs)
	if !cfg.Trace {
		return out, nil
	}

	rec := newRecorder(true, start)
	root := rec.add("experiment.run_strategies", start, start.Add(wall), -1, 0)
	for i, s := range brokerPicks {
		rec.add("strategy.pick", s.start, s.end, root, int64(i))
	}
	l := out.layer
	l["strategy.pick_us"] = quantile(pickNs, 0.5) / 1e3
	l["strategy.pick_share"] = float64(sum(pickNs)) / float64(wall.Nanoseconds())
	l["sim.digest"] = float64(digest)
	l["driver.share"] = 0 // one opaque call: the driver does nothing inside it
	registryCounts(l, delta)
	l["go.allocs_per_job"] = float64(msAfter.Mallocs-msBefore.Mallocs) / float64(max(1, o.Jobs))
	l["go.gc_pause_ms"] = float64(msAfter.PauseTotalNs-msBefore.PauseTotalNs) / 1e6
	l["driver.ops_per_s"] = float64(o.Jobs) / secs
	replayer{cfg.Toy}.broker(l, p)
	return out, out.traced(rec, cfg, wall)
}
