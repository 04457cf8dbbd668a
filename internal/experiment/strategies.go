package experiment

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"tycoongrid/internal/arc"
	"tycoongrid/internal/bank"
	"tycoongrid/internal/box"
	"tycoongrid/internal/mathx"
	"tycoongrid/internal/metrics"
	"tycoongrid/internal/strategy"
	"tycoongrid/internal/token"
	"tycoongrid/internal/tsdb"
	"tycoongrid/internal/workload"
	"tycoongrid/internal/xrsl"
)

// This file is the end-to-end strategy comparison the prediction suite
// exists for: the same partitioned grid market is replayed once per
// matchmaking strategy (current price, predicted mean, predicted quantile,
// Markowitz portfolio) under identical seeds and identical measured jobs, so
// the only difference between runs is WHERE the meta-scheduler sent each
// job. Partition p0 carries the paper's bursty batch-wave load whose deep
// price troughs bait the reactive current-price policy; the steady
// partitions carry a continuous medium load. A strategy that sees through
// the transient troughs — because the predicted or historical price of the
// bursty partition is high — finishes the measured jobs sooner and cheaper.

// StrategiesParams shapes the strategy-comparison scenario.
type StrategiesParams struct {
	World      WorldConfig // cluster shape; its Partitions, Strategy and Horizon are set from the fields below
	Partitions int         // Hosts are split evenly over them
	Hours      float64

	// Strategies to compare; empty means every registered strategy.
	Strategies []string
	// Horizon is the forecast horizon handed to prediction strategies and the
	// delay after which predicted-vs-realized error is scored.
	Horizon time.Duration
	// Predictor names the batch model ("ar", the only one) a candidate without
	// a forecast handle would be fitted with. The meta-scheduler never offers one, so no
	// world reads it; bench's replay of that batch path does.
	Predictor string
	// Window is the trailing history (in market ticks) forecasts and the
	// portfolio covariance see: every partition agent's price-ring capacity.
	Window int

	// Bursty background on partition 0: every WavePeriod a wave of WaveJobs
	// heavily-funded batch jobs lands, then completes, producing the sharp
	// spike/trough cycle of §5.4.
	WavePeriod time.Duration
	WaveJobs   int
	// Steady background on the remaining partitions: one modest job every
	// SteadyEvery per partition.
	SteadyEvery time.Duration

	// Measured jobs are submitted through the meta-scheduler at a fixed
	// cadence and constitute the comparison metric.
	MeasureStart    time.Duration
	MeasureEvery    time.Duration
	MeasureBudget   float64 // credits
	MeasureDeadline time.Duration
	MeasureSubJobs  int
	MeasureChunkMin float64
	MeasureMaxNodes int
}

// DefaultStrategiesParams returns the paper-shaped comparison: a six-host
// cluster in three two-host partitions, 30 hours of market activity, waves
// every 80 minutes on the bursty partition, and a measured job through the
// meta-scheduler every 50 minutes.
func DefaultStrategiesParams() StrategiesParams {
	w := PaperWorld()
	w.Hosts = 6
	w.Users = 6
	// Hundreds of single-use jobs per host over 30 h: reap idle VMs or the
	// per-host VM limit starves the second half of the run.
	w.PurgeIdleAfter = 30 * time.Minute
	return StrategiesParams{
		World:      w,
		Partitions: 3,
		Hours:      30,

		Strategies: nil, // all registered
		Horizon:    30 * time.Minute,
		Predictor:  "ar",
		Window:     600, // 100 min of 10 s ticks: > one full wave period

		WavePeriod:  80 * time.Minute,
		WaveJobs:    3,
		SteadyEvery: 25 * time.Minute,

		MeasureStart:    2 * time.Hour,
		MeasureEvery:    50 * time.Minute,
		MeasureBudget:   40,
		MeasureDeadline: 3 * time.Hour,
		MeasureSubJobs:  4,
		MeasureChunkMin: 20,
		MeasureMaxNodes: 2,
	}
}

// StrategyOutcome is one strategy's aggregate over its measured jobs.
type StrategyOutcome struct {
	Strategy string
	Jobs     int // measured jobs that finished
	Failed   int // measured jobs that failed or never finished
	// MeanCost is the mean credits actually charged per finished measured job.
	MeanCost float64
	// MeanMakespanMin is the mean submission-to-completion wall time (minutes).
	MeanMakespanMin float64
	// Volatility is the mean, over measured jobs, of the standard deviation of
	// the chosen partition's spot price during the job's lifetime (credits/s).
	Volatility float64
	// PredMAE is the meta-scheduler's mean absolute predicted-vs-realized
	// price error, scored one horizon after each pick.
	PredMAE float64
	// Picks counts matchmaking decisions per partition name.
	Picks map[string]int
	// Clears and Transfers capture the run's telemetry: auction clears and
	// bank transfers recorded by the process registry while this strategy's
	// world ran (a snapshot delta, deterministic for a seeded serial run).
	Clears    uint64
	Transfers uint64
}

// StrategiesResult is the full comparison.
type StrategiesResult struct {
	Outcomes []StrategyOutcome
}

// RunStrategies replays the scenario once per strategy under the same seed
// and returns the per-strategy outcomes in the order requested.
func RunStrategies(p StrategiesParams) (*StrategiesResult, error) {
	if p.Partitions < 2 {
		return nil, errors.New("experiment: strategies needs at least 2 partitions")
	}
	if p.Hours <= 0 || p.MeasureEvery <= 0 || p.MeasureDeadline <= 0 {
		return nil, errors.New("experiment: bad strategies timing")
	}
	names := p.Strategies
	if len(names) == 0 {
		names = strategy.Names()
	}
	res := &StrategiesResult{}
	for _, name := range names {
		out, err := runOneStrategy(p, name)
		if err != nil {
			return nil, fmt.Errorf("experiment: strategy %q: %w", name, err)
		}
		res.Outcomes = append(res.Outcomes, *out)
	}
	return res, nil
}

// stratWorld is the partitioned meta-scheduler testbed.
type stratWorld struct {
	*World
	partitions [][]string // host ids per partition
	hostPart   map[string]int
}

// buildStrategiesWorld is the world of p.World split into p.Partitions under
// a Meta running the named strategy, every partition agent's forecast window
// set to the prediction window.
func buildStrategiesWorld(p StrategiesParams, stratName string) (*stratWorld, error) {
	cfg := p.World
	cfg.Partitions, cfg.Strategy, cfg.Horizon = p.Partitions, stratName, p.Horizon
	b, err := box.NewWindowed(cfg, p.Window)
	if err != nil {
		return nil, err
	}
	w := &stratWorld{World: &World{b}, hostPart: make(map[string]int)}
	// The volatility column reads a measured job's (submitted, finished]
	// window at the first sweep after the job ends (run), so the markets'
	// rings, of which the agents read the last p.Window ticks, hold the
	// longest wait from a submission to that sweep, not the run. A job ends
	// within its deadline, so one that ends before the last measured
	// submission is read at most a deadline and a cadence after its own. One
	// still running then was submitted less than a deadline before it, and
	// is read after the run, which ends less than a deadline and a cadence
	// after it: at most two deadlines and a cadence.
	ticks := max(p.Window, int((2*p.MeasureDeadline+p.MeasureEvery)/w.Cluster.Interval())+1)
	for _, id := range w.Cluster.HostIDs() {
		w.history(id, ticks)
	}
	for i, ag := range w.Agents {
		part := ag.HostIDs()
		for _, h := range part {
			w.hostPart[h] = i
		}
		w.partitions = append(w.partitions, part)
	}
	return w, nil
}

// background submits one direct (non-meta) job to partition pi's agent.
func (w *stratWorld) background(u *GridUser, pi int, credits float64,
	deadline time.Duration, subJobs int, chunkMin float64, maxNodes int) error {
	budget, err := bank.FromCredits(credits)
	if err != nil || budget <= 0 {
		return err
	}
	tok, err := w.MintToken(u, budget)
	if err != nil {
		return err
	}
	jr := &xrsl.JobRequest{
		JobName: "background", Executable: "scan.sh",
		Count: maxNodes, WallTime: deadline,
	}
	chunks := make([]float64, subJobs)
	for i := range chunks {
		chunks[i] = chunkMin * 60 * workload.ReferenceMHz
	}
	_, err = w.Agents[pi].Submit(tok, jr, chunks)
	return err
}

// runOneStrategy executes the full scenario under one matchmaking strategy.
func runOneStrategy(p StrategiesParams, stratName string) (*StrategyOutcome, error) {
	w, err := buildStrategiesWorld(p, stratName)
	if err != nil {
		return nil, err
	}
	return w.run(p, stratName)
}

// run drives the scenario on a built world and scores its measured jobs.
func (w *stratWorld) run(p StrategiesParams, stratName string) (*StrategyOutcome, error) {
	horizon := time.Duration(p.Hours * float64(time.Hour))

	// Bursty waves on partition 0. Each wave's jobs are funded heavily and
	// sized to finish within the period, so the partition cycles between
	// expensive (wave running) and reserve-price troughs (wave done).
	waveSrc := w.Src.Split()
	waveUser := 0
	var wave func()
	wave = func() {
		for i := 0; i < p.WaveJobs; i++ {
			u := w.Users[waveUser%len(w.Users)]
			waveUser++
			_ = w.background(u, 0, waveSrc.Uniform(80, 120), p.WavePeriod*3/4,
				5+waveSrc.Intn(3), waveSrc.Uniform(7, 10), len(w.partitions[0]))
		}
		if w.Engine.Elapsed()+p.WavePeriod <= horizon {
			_ = w.Engine.After(p.WavePeriod, wave)
		}
	}
	if p.WavePeriod > 0 && p.WaveJobs > 0 {
		if err := w.Engine.After(10*time.Minute, wave); err != nil {
			return nil, err
		}
	}

	// Steady medium load on every other partition: modest budgets, long
	// deadlines, continuous overlap — a flat price comfortably above the
	// reserve floor but far below a wave.
	for pi := 1; pi < len(w.partitions); pi++ {
		pi := pi
		steadySrc := w.Src.Split()
		userOff := pi
		var drip func()
		drip = func() {
			u := w.Users[userOff%len(w.Users)]
			userOff += len(w.partitions)
			_ = w.background(u, pi, steadySrc.Uniform(8, 14), 2*time.Hour,
				4, steadySrc.Uniform(12, 18), len(w.partitions[pi]))
			if w.Engine.Elapsed()+p.SteadyEvery <= horizon {
				_ = w.Engine.After(p.SteadyEvery, drip)
			}
		}
		start := time.Duration(steadySrc.Uniform(2, p.SteadyEvery.Minutes()) * float64(time.Minute))
		if err := w.Engine.After(start, drip); err != nil {
			return nil, err
		}
	}

	// Measured jobs through the meta-scheduler at a fixed, strategy-
	// independent cadence; identical budget, shape and deadline every time.
	measureUser := w.Users[len(w.Users)-1]
	budget, err := bank.FromCredits(p.MeasureBudget)
	if err != nil {
		return nil, err
	}
	chunks := make([]float64, p.MeasureSubJobs)
	for i := range chunks {
		chunks[i] = p.MeasureChunkMin * 60 * workload.ReferenceMHz
	}
	var (
		measured []*arc.GridJob
		vols     []float64 // each measured job's volatility, by index; NaN until scored
		open     []int     // the measured jobs that have not ended
		volErr   error
	)
	// sweep scores each measured job that ended since the last sweep, while
	// its partition's rings still hold the job's window.
	sweep := func() {
		left := open[:0]
		for _, i := range open {
			gj := measured[i]
			switch gj.State {
			case arc.StateFinished:
				if pi := w.jobPartition(gj); pi >= 0 && volErr == nil {
					sd, ok, err := w.partitionPriceStd(pi, gj.Submitted, gj.Finished)
					if ok {
						vols[i] = sd
					}
					volErr = err
				}
			case arc.StateFailed, arc.StateKilled:
			default:
				left = append(left, i)
			}
		}
		open = left
	}
	var measureErrs int
	for at := p.MeasureStart; at+p.MeasureDeadline <= horizon; at += p.MeasureEvery {
		at := at
		if err := w.Engine.After(at, func() {
			sweep()
			tok, err := w.MintToken(measureUser, budget)
			if err != nil {
				measureErrs++
				return
			}
			enc, err := token.Encode(tok)
			if err != nil {
				measureErrs++
				return
			}
			xrslText := fmt.Sprintf(
				"&(executable=scan.sh)(jobname=measured)(count=%d)(walltime=%d)(transfertoken=%s)",
				p.MeasureMaxNodes, int(p.MeasureDeadline.Minutes()), enc)
			gj, err := w.Meta.SubmitContext(context.Background(), xrslText, chunks)
			if err != nil {
				measureErrs++
				return
			}
			open = append(open, len(measured))
			measured = append(measured, gj)
			vols = append(vols, math.NaN())
		}); err != nil {
			return nil, err
		}
	}

	snapBefore := metrics.Default().Snapshot()
	w.Engine.RunFor(horizon)
	sweep()
	telemetry := metrics.Default().Snapshot().Delta(snapBefore)
	if volErr != nil {
		return nil, volErr
	}

	if len(measured) == 0 {
		return nil, fmt.Errorf("no measured jobs submitted (%d errors)", measureErrs)
	}
	out := &StrategyOutcome{Strategy: stratName, Picks: map[string]int{}, Failed: measureErrs}
	out.Clears = counterDelta(telemetry, "auction_clears_total")
	out.Transfers = counterDelta(telemetry, "bank_transfers_total")
	var costW, mkspW, volW mathx.Welford
	for i, gj := range measured {
		pi := w.jobPartition(gj)
		if pi >= 0 {
			out.Picks[fmt.Sprintf("p%d", pi)]++
		}
		if gj.State != arc.StateFinished || gj.AgentJob == nil {
			out.Failed++
			continue
		}
		out.Jobs++
		costW.Add(gj.AgentJob.Charged.Credits())
		mkspW.Add(gj.Finished.Sub(gj.Submitted).Minutes())
		if !math.IsNaN(vols[i]) {
			volW.Add(vols[i])
		}
	}
	w.Cluster.Sync() // every market pays its ring the samples it owes, so a refused one is counted
	if err := w.checkRefused(); err != nil {
		return nil, err
	}
	if out.Jobs == 0 {
		return nil, fmt.Errorf("no measured jobs finished (%d failed)", out.Failed)
	}
	out.MeanCost = costW.Mean()
	out.MeanMakespanMin = mkspW.Mean()
	out.Volatility = volW.Mean()
	out.PredMAE = w.Meta.PredictionStats().MeanAbsError
	return out, nil
}

// counterDelta sums one counter family's children in a snapshot delta.
func counterDelta(s metrics.Snapshot, family string) uint64 {
	var sum uint64
	for _, c := range s.Counters {
		if c.Name == family {
			sum += c.Value
		}
	}
	return sum
}

// jobPartition maps a measured job to the partition it ran in.
func (w *stratWorld) jobPartition(gj *arc.GridJob) int {
	if gj.AgentJob == nil {
		return -1
	}
	for _, s := range gj.AgentJob.SubJobs {
		if pi, ok := w.hostPart[s.Host]; ok {
			return pi
		}
	}
	for _, h := range gj.AgentJob.Hosts {
		if pi, ok := w.hostPart[h]; ok {
			return pi
		}
	}
	return -1
}

// partitionPriceStd is the standard deviation of the partition's mean spot
// price over (from, to], read from the markets' rings; false if a host holds
// fewer than two samples there. A ring that no longer holds the whole window
// fails the run: a job's window is never read truncated.
func (w *stratWorld) partitionPriceStd(pi int, from, to time.Time) (float64, bool, error) {
	hosts := w.partitions[pi]
	w.Cluster.Sync(hosts...) // sleeping markets owe the trace their idle clears
	series := make([][]tsdb.Point, 0, len(hosts))
	n := math.MaxInt
	for _, h := range hosts {
		ring := w.history(h, 0)
		if !ring.HoldsAfter(from.UnixNano()) {
			return 0, false, fmt.Errorf("experiment: %s's price ring (%d ticks) no longer holds the window from %s to %s",
				h, ring.Capacity(), from.Format(time.DateTime), to.Format(time.DateTime))
		}
		pts := ring.Range(from.UnixNano(), to.UnixNano())
		if len(pts) < 2 {
			return 0, false, nil
		}
		series = append(series, pts)
		if len(pts) < n {
			n = len(pts)
		}
	}
	var sd mathx.Welford
	for i := 0; i < n; i++ {
		var sum float64
		for _, pts := range series {
			sum += pts[len(pts)-n+i].V
		}
		sd.Add(sum / float64(len(series)))
	}
	return math.Sqrt(sd.SampleVariance()), true, nil
}

// String renders the comparison as an aligned table.
func (r *StrategiesResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-20s %10s %12s %12s %12s %6s %6s %8s %8s  %s\n",
		"strategy", "cost", "makespan_min", "volatility", "pred_mae", "jobs", "fail",
		"clears", "txns", "picks")
	for _, o := range r.Outcomes {
		fmt.Fprintf(&sb, "%-20s %10.3f %12.1f %12.6f %12.6f %6d %6d %8d %8d  %s\n",
			o.Strategy, o.MeanCost, o.MeanMakespanMin, o.Volatility, o.PredMAE,
			o.Jobs, o.Failed, o.Clears, o.Transfers, formatPicks(o.Picks))
	}
	return sb.String()
}

func formatPicks(picks map[string]int) string {
	keys := make([]string, 0, len(picks))
	for k := range picks {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s:%d", k, picks[k]))
	}
	return strings.Join(parts, " ")
}

// WriteCSV exports the comparison as strategies.csv, one row per strategy.
func (r *StrategiesResult) WriteCSV(dir string) error {
	header := []string{"strategy", "cost", "makespan_min", "volatility", "pred_mae", "jobs", "failed",
		"clears", "transfers"}
	names := make([][]string, len(r.Outcomes))
	rows := make([][]float64, len(r.Outcomes))
	for i, o := range r.Outcomes {
		names[i] = []string{o.Strategy}
		rows[i] = []float64{o.MeanCost, o.MeanMakespanMin, o.Volatility, o.PredMAE,
			float64(o.Jobs), float64(o.Failed), float64(o.Clears), float64(o.Transfers)}
	}
	return writeCSVFile(dir, "strategies.csv", header, names, rows)
}
