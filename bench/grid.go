package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"time"

	"tycoongrid/internal/arc"
	"tycoongrid/internal/bank"
	"tycoongrid/internal/experiment"
	"tycoongrid/internal/metrics"
	"tycoongrid/internal/token"
	"tycoongrid/internal/tracing"
)

// gridSize shapes one job-path workload. Jobs arrive in waves; the number of
// waves grows with the requested seconds, everything else is fixed, so a
// (seed, seconds) pair always yields the same simulation.
type gridSize struct {
	hosts, users   int
	jobsPerWave    int
	waveGapTicks   int     // market intervals between waves
	tailTicks      int     // intervals after the last wave, for jobs to finish
	wavesPerSecond float64 // calibration: waves that fit one wall second
	setupRepeats   int
}

// The paper's application shape, fixed by the issue: 8 chunks of 10 CPU
// minutes on at most 8 nodes, 50 credits, two-hour deadline.
const (
	gridJobXRSL   = "&(executable=scan.sh)(jobname=bench-%d)(count=8)(cputime=10)(walltime=120)(transfertoken=%s)"
	gridJobBudget = 50 * bank.Credit
	gridInterval  = 10 * time.Second // the market's default reallocation period
)

var gridSizes = map[string]gridSize{
	// 10 000 mostly idle hosts: cost is O(hosts) per tick and per submission.
	// A wave is done after 60 ticks, so every 90-tick period is alike.
	"grid-wide": {hosts: 10000, users: 100, jobsPerWave: 100, waveGapTicks: 90, tailTicks: 90,
		wavesPerSecond: 0.7, setupRepeats: 5},
	// 300 saturated hosts: cost is per live bid.
	"grid-dense": {hosts: 300, users: 150, jobsPerWave: 150, waveGapTicks: 120, tailTicks: 480,
		wavesPerSecond: 1.3, setupRepeats: 15},
}

var gridToySizes = map[string]gridSize{
	"grid-wide":  {hosts: 200, users: 10, jobsPerWave: 20, waveGapTicks: 30, tailTicks: 200, wavesPerSecond: 2, setupRepeats: 2},
	"grid-dense": {hosts: 30, users: 10, jobsPerWave: 20, waveGapTicks: 60, tailTicks: 480, wavesPerSecond: 2, setupRepeats: 2},
}

func runGrid(cfg runConfig) (*outcome, error) {
	sz := gridSizes[cfg.Workload]
	if cfg.Toy {
		sz = gridToySizes[cfg.Workload]
	}
	waves := max(1, int(math.Round(cfg.Seconds*sz.wavesPerSecond)))
	ticks := (waves-1)*sz.waveGapTicks + sz.tailTicks
	jobs := waves * sz.jobsPerWave

	tracing.Default().SetSampleRatio(0)
	wc := experiment.PaperWorld()
	wc.Hosts, wc.Users, wc.Seed, wc.Shards = sz.hosts, sz.users, cfg.Seed, 1
	// Every job bids under its own sub-account, so its VMs are never reused;
	// without reaping, thousands of jobs exhaust the hosts' VM slots.
	wc.PurgeIdleAfter = 10 * time.Minute

	var w *experiment.World
	var mgr *arc.Manager
	setup, err := medianSetup(cfg.Workload, sz.setupRepeats, func() (err error) {
		if w, err = experiment.NewWorld(wc); err != nil {
			return err
		}
		mgr, err = arc.New(arc.Config{Agent: w.Agent})
		return err
	})
	if err != nil {
		return nil, err
	}

	// Inputs from the seed, before the clock: who submits each job.
	src := rand.New(rand.NewSource(cfg.Seed))
	submitter := make([]int, jobs)
	for i := range submitter {
		submitter[i] = src.Intn(len(w.Users))
	}

	supply := w.Bank.TotalMoney()
	eng := w.Engine
	for i := 0; i < 6; i++ { // warm-up: one idle simulated minute
		eng.RunFor(gridInterval)
	}
	runtime.GC()

	submitted := make([]*arc.GridJob, 0, jobs)
	mintNs := make([]int64, 0, jobs)
	arcNs := make([]int64, 0, jobs)
	agentNs := make([]int64, 0, jobs)
	opNs := make([]int64, 0, jobs)
	tickNs := make([]int64, 0, ticks)
	var liveBids []int64
	hostIDs := w.Cluster.HostIDs()
	submitErrs := 0

	var msBefore, msAfter runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	snapBefore := metrics.Default().Snapshot()
	stepsBefore := eng.Steps()
	start := time.Now()
	rec := newRecorder(cfg.Trace, start)

	// One slice per wave period: a wave's submissions and the ticks up to
	// the next wave. Periods after the last wave submit nothing and drop out.
	var marks []mark
	next := 0
	for tick := 0; tick < ticks; tick++ {
		if tick%sz.waveGapTicks == 0 {
			marks = append(marks, cut(next, selfCPU))
		}
		if tick%sz.waveGapTicks == 0 && next < jobs {
			for end := next + sz.jobsPerWave; next < end; next++ {
				u := w.Users[submitter[next]]
				t0 := time.Now()
				tok, err := w.MintToken(u, gridJobBudget)
				t1 := time.Now()
				if err != nil {
					submitErrs++
					continue
				}
				enc, err := token.Encode(tok)
				if err != nil {
					submitErrs++
					continue
				}
				text := fmt.Sprintf(gridJobXRSL, next, enc)
				t2 := time.Now()
				gj, err := mgr.Submit(text, nil)
				t3 := time.Now()
				// The zero-delay stage-in event carries the agent's half of
				// the submission: verify, fund, discover prices, bid, start.
				eng.RunUntil(eng.Now())
				t4 := time.Now()
				if err != nil {
					submitErrs++
					continue
				}
				submitted = append(submitted, gj)
				mintNs = append(mintNs, t1.Sub(t0).Nanoseconds())
				arcNs = append(arcNs, t3.Sub(t2).Nanoseconds())
				agentNs = append(agentNs, t4.Sub(t3).Nanoseconds())
				opNs = append(opNs, t4.Sub(t2).Nanoseconds())
				if rec != nil {
					root := rec.add("job.submit", t0, t4, -1, int64(next))
					rec.add("driver.mint", t0, t1, root, int64(next))
					rec.add("arc.submit", t2, t3, root, int64(next))
					rec.add("agent.submit", t3, t4, root, int64(next))
				}
			}
		}
		t0 := time.Now()
		eng.RunFor(gridInterval)
		t1 := time.Now()
		tickNs = append(tickNs, t1.Sub(t0).Nanoseconds())
		rec.add("grid.tick", t0, t1, -1, int64(tick))
		if rec != nil && tick%60 == 30 {
			// Book depth on a fixed sample of hosts, read between ticks.
			for i := 0; i < len(hostIDs); i += max(1, len(hostIDs)/64) {
				if h, err := w.Cluster.Host(hostIDs[i]); err == nil {
					liveBids = append(liveBids, int64(len(h.Market.Shares())))
				}
			}
		}
	}
	marks = append(marks, cut(next, selfCPU))
	wall := time.Since(start)
	delta := metrics.Default().Snapshot().Delta(snapBefore)
	runtime.ReadMemStats(&msAfter)

	// Gates: every job finished, money conserved, escrow drained.
	out := newOutcome()
	out.attempted = jobs
	finished := 0
	var charged bank.Amount
	var completion time.Duration
	for _, gj := range submitted {
		if gj.State != arc.StateFinished || gj.AgentJob == nil {
			continue
		}
		finished++
		charged += gj.AgentJob.Charged
		completion += gj.Finished.Sub(gj.Submitted)
	}
	out.failed = jobs - finished
	if submitErrs > 0 {
		out.violate("%d of %d submissions were rejected", submitErrs, jobs)
	}
	if finished != jobs {
		out.violate("%d of %d jobs not FINISHED by the horizon", jobs-finished, jobs)
	}
	if got := w.Bank.TotalMoney(); got != supply {
		out.violate("money not conserved: %s, want %s", got, supply)
	}
	for _, id := range w.Bank.Accounts() {
		if !strings.HasPrefix(string(id), "broker/") {
			continue
		}
		if bal, err := w.Bank.Balance(id); err != nil || bal != 0 {
			out.violate("escrow %s not drained: %s (%v)", id, bal, err)
			break
		}
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%d/%d", finished, int64(charged), int64(completion))
	digest := h.Sum64() & (1<<48 - 1) // exact in a JSON number
	out.info("sim.digest %012x (jobs finished %d, charged %s, completion %s)", digest, finished, charged, completion)

	secs := wall.Seconds()
	err = out.measured(cfg.Workload, setup, marks, [][]float64{chunkQuantiles(opNs, sz.jobsPerWave, 0.50)},
		[][]float64{chunkQuantiles(opNs, sz.jobsPerWave, 0.90)}, os.Getpid())
	if err != nil {
		return nil, err
	}
	out.info("op = one job submission (xRSL text with token -> Manager.Submit -> stage-in drain); tail = p90; slice = one wave period")
	out.info("whole run: %.2f jobs/s over %.2fs, %d jobs, %d ticks, tick p50 %.1f us", float64(finished)/secs, secs, jobs, ticks, quantile(tickNs, 0.5)/1e3)
	if !cfg.Trace {
		return out, nil
	}

	// In-vivo spans: mint + arc + agent + tick + the driver's own remainder
	// partition the timed wall exactly.
	wallNs := float64(wall.Nanoseconds())
	arcSum, agentSum, tickSum := float64(sum(arcNs)), float64(sum(agentNs)), float64(sum(tickNs))
	l := out.layer
	l["driver.mint_us"] = quantile(mintNs, 0.5) / 1e3
	l["arc.submit_us"] = quantile(arcNs, 0.5) / 1e3
	l["agent.submit_us"] = quantile(agentNs, 0.5) / 1e3
	l["agent.submit_p99_us"] = quantile(agentNs, 0.99) / 1e3
	l["grid.tick_us"] = quantile(tickNs, 0.5) / 1e3
	l["grid.tick_p99_us"] = quantile(tickNs, 0.99) / 1e3
	l["arc.submit_share"] = arcSum / wallNs
	l["agent.submit_share"] = agentSum / wallNs
	l["grid.tick_share"] = tickSum / wallNs
	l["driver.share"] = 1 - (arcSum+agentSum+tickSum)/wallNs

	// Counts at the program's own boundaries.
	l["sim.events"] = float64(eng.Steps() - stepsBefore)
	l["sim.digest"] = float64(digest)
	registryCounts(l, delta)
	l["auction.live_bids_p50"] = quantile(liveBids, 0.5)
	l["go.allocs_per_job"] = float64(msAfter.Mallocs-msBefore.Mallocs) / float64(max(1, finished))
	l["go.gc_pause_ms"] = float64(msAfter.PauseTotalNs-msBefore.PauseTotalNs) / 1e6
	l["driver.ops_per_s"] = float64(finished) / secs

	// Layer replay on inputs shaped like this workload, then attribution.
	k := int(l["auction.live_bids_p50"])
	replayer{cfg.Toy}.grid(l, sz.hosts, k, len(submitted))
	nJobs, nTicks := float64(max(1, len(submitted))), float64(max(1, len(tickNs)))
	perTick := float64(sz.hosts) * (l["auction.tick_ns"] + l["pricefeed.observe_ns"] + l["trace.record_ns"])
	perTick += l["bank.moves"] / nTicks * l["bank.move_ns"]
	l["grid.tick.attributed_share"] = perTick * nTicks / math.Max(1, tickSum)
	perSubmit := l["token.verify_ns"] + l["bank.subaccount_ns"] + l["bank.move_ns"] +
		float64(sz.hosts)*l["auction.price_excluding_ns"] + l["core.best_response_ns"] +
		l["auction.bids_placed"]/nJobs*l["auction.place_bid_ns"]
	l["agent.submit.attributed_share"] = perSubmit * nJobs / math.Max(1, agentSum)

	return out, out.traced(rec, cfg, wall)
}
