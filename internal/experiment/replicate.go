package experiment

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"

	"tycoongrid/internal/mathx"
	"tycoongrid/internal/rng"
	"tycoongrid/internal/tracing"
)

// This file is the replication runner: it executes N independently-seeded
// copies of one experiment across a worker pool and merges the per-replication
// metric vectors into mean / standard deviation / 95% confidence intervals.
// Three properties make the output trustworthy:
//
//   - Seeds are derived statelessly: replication i always runs with
//     rng.DeriveSeed(base, i) no matter which worker picks it up, so the
//     schedule cannot leak into the results.
//   - Every replication builds its own World (engine, cluster, bank, agent)
//     and its own quiet tracer; concurrent worlds share nothing mutable.
//   - Reduction happens in replication-index order after all workers join,
//     so the aggregate (and its CSV rendering) is byte-identical whether it
//     was computed with 1 worker or 16.

// RepSpec describes one replicable experiment: the metric columns a single
// replication produces and a closure that runs one fully-seeded copy.
type RepSpec struct {
	Name string
	Cols []string
	// Run executes one replication with the given seed and returns one value
	// per column. It must not retain or share state across calls: the runner
	// invokes it concurrently from several goroutines.
	Run func(seed int64) ([]float64, error)
}

// ReplicationConfig controls the worker pool.
type ReplicationConfig struct {
	// Reps is the number of independent replications.
	Reps int
	// Parallel is the worker count; <= 0 means GOMAXPROCS. It never exceeds
	// Reps. The aggregate is identical for every value of Parallel.
	Parallel int
	// BaseSeed is the seed the per-replication seeds are derived from.
	BaseSeed int64
}

// Aggregate is the merged outcome of a replicated experiment.
type Aggregate struct {
	Name  string
	Cols  []string
	Seeds []int64 // Seeds[i] drove replication i
	// PerRep[i][c] is replication i's value for column c.
	PerRep [][]float64
	// Mean, StdDev and CI95 hold per-column sample statistics; CI95 is the
	// half-width of the Student-t 95% confidence interval on the mean.
	Mean   []float64
	StdDev []float64
	CI95   []float64
}

// Replicate runs spec.Run once per replication across a pool of workers and
// reduces the results in seed order.
func Replicate(spec RepSpec, cfg ReplicationConfig) (*Aggregate, error) {
	if spec.Run == nil {
		return nil, errors.New("experiment: replication spec has no Run")
	}
	if len(spec.Cols) == 0 {
		return nil, errors.New("experiment: replication spec has no columns")
	}
	if cfg.Reps <= 0 {
		return nil, fmt.Errorf("experiment: need at least one replication, got %d", cfg.Reps)
	}
	workers := cfg.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > cfg.Reps {
		workers = cfg.Reps
	}

	seeds := make([]int64, cfg.Reps)
	for i := range seeds {
		seeds[i] = rng.DeriveSeed(cfg.BaseSeed, uint64(i))
	}
	results := make([][]float64, cfg.Reps)
	errs := make([]error, cfg.Reps)
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				results[i], errs[i] = spec.Run(seeds[i])
			}
		}()
	}
	for i := 0; i < cfg.Reps; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	// Seed-ordered reduction: the first error by index wins, and the column
	// statistics fold replications in index order.
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("experiment: replication %d (seed %d): %w", i, seeds[i], err)
		}
	}
	nc := len(spec.Cols)
	for i, row := range results {
		if len(row) != nc {
			return nil, fmt.Errorf("experiment: replication %d returned %d values for %d columns", i, len(row), nc)
		}
	}
	agg := &Aggregate{
		Name: spec.Name, Cols: spec.Cols, Seeds: seeds, PerRep: results,
		Mean: make([]float64, nc), StdDev: make([]float64, nc), CI95: make([]float64, nc),
	}
	for c := 0; c < nc; c++ {
		var w mathx.Welford
		for _, row := range results {
			w.Add(row[c])
		}
		agg.Mean[c] = w.Mean()
		if n := int(w.N()); n >= 2 {
			sd := math.Sqrt(w.SampleVariance())
			agg.StdDev[c] = sd
			agg.CI95[c] = mathx.StudentTQuantile(0.975, n-1) * sd / math.Sqrt(float64(n))
		}
	}
	return agg, nil
}

// String renders the aggregate as an aligned metric table.
func (a *Aggregate) String() string {
	out := fmt.Sprintf("%d replications\n%-24s %14s %14s %14s\n",
		len(a.PerRep), "metric", "mean", "stddev", "ci95")
	for c, col := range a.Cols {
		out += fmt.Sprintf("%-24s %14.4f %14.4f %14.4f\n",
			col, a.Mean[c], a.StdDev[c], a.CI95[c])
	}
	return out
}

// quietTracer builds the private tracer a replication world runs under:
// unsampled (replications need numbers, not span trees) and detached from
// the process-wide scope stack so concurrent worlds cannot cross-pollute
// each other's timelines.
func quietTracer() *tracing.Tracer {
	t := tracing.New(tracing.WithCapacity(64))
	t.SetSampleRatio(0)
	return t
}

// ---------------------------------------------------------------------------
// Spec constructors: one per replicable table/figure harness. Each Run
// closure copies its params value, overrides every seed with the derived
// replication seed, and injects a fresh quiet tracer.
// ---------------------------------------------------------------------------

// tableCols derives the aggregate columns for a table scenario from its
// budget grouping (e.g. u1-2_time_h ... u3-5_nodes).
func tableCols(p BestResponseParams) []string {
	rows := make([]UserRow, len(p.Budgets))
	for i, b := range p.Budgets {
		rows[i].Budget = b
	}
	var cols []string
	for _, g := range groupRows(rows, p.GroupSizes) {
		for _, m := range []string{"time_h", "cost_per_h", "latency_min", "nodes"} {
			cols = append(cols, "u"+g.Label+"_"+m)
		}
	}
	return cols
}

// RepSpecTable replicates a best-response table scenario (Table 1 or 2),
// reporting the per-group outcome metrics.
func RepSpecTable(name string, p BestResponseParams) RepSpec {
	return RepSpec{
		Name: name,
		Cols: tableCols(p),
		Run: func(seed int64) ([]float64, error) {
			q := p
			q.World.Seed = seed
			q.World.Tracer = quietTracer()
			res, err := RunBestResponseTable(q)
			if err != nil {
				return nil, err
			}
			var out []float64
			for _, g := range res.Groups {
				out = append(out, g.TimeHours, g.CostPerH, g.LatencyMin, g.Nodes)
			}
			return out, nil
		},
	}
}

// RepSpecFigure3 replicates the normal-model prediction experiment: the
// measured price moments, the budget recommendations, and every point of
// each guarantee curve (so the mean curve carries a CI band).
func RepSpecFigure3(p Figure3Params) RepSpec {
	cols := []string{"mu", "sigma", "knee_per_day", "min_useful_per_day"}
	for _, g := range p.Guarantees {
		for _, b := range p.BudgetsPerDay {
			cols = append(cols, fmt.Sprintf("cap_p%02.0f_b%g", g*100, b))
		}
	}
	return RepSpec{
		Name: "figure3",
		Cols: cols,
		Run: func(seed int64) ([]float64, error) {
			q := p
			q.Load.World.Seed = seed
			q.Load.World.Tracer = quietTracer()
			res, err := RunFigure3(q)
			if err != nil {
				return nil, err
			}
			out := []float64{res.Mu, res.Sigma, res.KneePerDay, res.MinUsefulMHz}
			for _, curve := range res.CurvesMHz {
				out = append(out, curve...)
			}
			return out, nil
		},
	}
}

// RepSpecFigure4 replicates the AR-forecast comparison.
func RepSpecFigure4(p Figure4Params) RepSpec {
	return RepSpec{
		Name: "figure4",
		Cols: []string{"eps_ar", "eps_pers", "points"},
		Run: func(seed int64) ([]float64, error) {
			q := p
			q.Load.World.Seed = seed
			q.Load.World.Tracer = quietTracer()
			res, err := RunFigure4(q)
			if err != nil {
				return nil, err
			}
			return []float64{res.EpsilonAR, res.EpsilonPers, float64(res.Points)}, nil
		},
	}
}

// RepSpecFigure5 replicates the portfolio downside-risk comparison.
func RepSpecFigure5(p Figure5Params) RepSpec {
	return RepSpec{
		Name: "figure5",
		Cols: []string{
			"mean_rf", "mean_eq", "std_rf", "std_eq",
			"worst_rf", "worst_eq", "p5_rf", "p5_eq",
		},
		Run: func(seed int64) ([]float64, error) {
			q := p
			q.Seed = seed
			res, err := RunFigure5(q)
			if err != nil {
				return nil, err
			}
			return []float64{
				res.MeanRF, res.MeanEQ, res.StdRF, res.StdEQ,
				res.WorstRF, res.WorstEQ, res.P5RF, res.P5EQ,
			}, nil
		},
	}
}

// RepSpecFigure6 replicates the moving-window distribution experiment,
// reporting the four moments per window.
func RepSpecFigure6(p Figure6Params) RepSpec {
	names := sortedKeys(p.Windows)
	var cols []string
	for _, n := range names {
		for _, m := range []string{"mean", "sd", "skew", "kurt"} {
			cols = append(cols, n+"_"+m)
		}
	}
	return RepSpec{
		Name: "figure6",
		Cols: cols,
		Run: func(seed int64) ([]float64, error) {
			q := p
			q.Load.World.Seed = seed
			q.Load.World.Tracer = quietTracer()
			res, err := RunFigure6(q)
			if err != nil {
				return nil, err
			}
			var out []float64
			for _, w := range res.Windows {
				out = append(out, w.Moments.Mean, w.Moments.StdDev, w.Moments.Skewness, w.Moments.Kurtosis)
			}
			return out, nil
		},
	}
}

// RepSpecFigure7 replicates the window-approximation accuracy experiment.
func RepSpecFigure7(p Figure7Params) RepSpec {
	var cols []string
	for _, d := range []string{"norm", "exp", "beta"} {
		cols = append(cols, d+"_tv", d+"_approx_mean", d+"_actual_mean")
	}
	return RepSpec{
		Name: "figure7",
		Cols: cols,
		Run: func(seed int64) ([]float64, error) {
			q := p
			q.Seed = seed
			res, err := RunFigure7(q)
			if err != nil {
				return nil, err
			}
			if len(res.Reports) != 3 {
				return nil, fmt.Errorf("experiment: figure7 returned %d reports", len(res.Reports))
			}
			var out []float64
			for _, rep := range res.Reports {
				out = append(out, rep.TotalVariation, rep.ApproxMean, rep.ActualMean)
			}
			return out, nil
		},
	}
}

// RepSpecAblationScheduler replicates the market-vs-batch comparison.
func RepSpecAblationScheduler(p BestResponseParams) RepSpec {
	return RepSpec{
		Name: "ablation-scheduler",
		Cols: []string{
			"market_low_lat_min", "market_high_lat_min", "market_low_time_h", "market_high_time_h",
			"batch_low_lat_min", "batch_high_lat_min", "batch_low_time_h", "batch_high_time_h",
		},
		Run: func(seed int64) ([]float64, error) {
			q := p
			q.World.Seed = seed
			q.World.Tracer = quietTracer()
			res, err := RunAblationScheduler(q)
			if err != nil {
				return nil, err
			}
			return []float64{
				res.Market.LowLatency, res.Market.HighLatency, res.Market.LowTime, res.Market.HighTime,
				res.Batch.LowLatency, res.Batch.HighLatency, res.Batch.LowTime, res.Batch.HighTime,
			}, nil
		},
	}
}

// RepSpecAblationSmoothing replicates the smoothing-pre-pass ablation.
func RepSpecAblationSmoothing(p Figure4Params) RepSpec {
	return RepSpec{
		Name: "ablation-smoothing",
		Cols: []string{"eps_smoothed", "eps_raw", "eps_pers"},
		Run: func(seed int64) ([]float64, error) {
			q := p
			q.Load.World.Seed = seed
			q.Load.World.Tracer = quietTracer()
			res, err := RunAblationSmoothing(q)
			if err != nil {
				return nil, err
			}
			return []float64{res.EpsilonSmoothed, res.EpsilonRaw, res.EpsilonPers}, nil
		},
	}
}

// DefaultRepSpec returns the replication spec for a named experiment with
// the paper-default parameters, matching the marketbench single-run setup.
// It errors for experiments that are deterministic sweeps with no stochastic
// component worth replicating (ablation-cap, ablation-interval, sla).
func DefaultRepSpec(name string) (RepSpec, error) {
	switch name {
	case "table1":
		return RepSpecTable(name, Table1Params()), nil
	case "table2":
		return RepSpecTable(name, Table2Params()), nil
	case "figure3":
		return RepSpecFigure3(DefaultFigure3Params()), nil
	case "figure4":
		return RepSpecFigure4(DefaultFigure4Params()), nil
	case "figure5":
		return RepSpecFigure5(DefaultFigure5Params()), nil
	case "figure6":
		return RepSpecFigure6(DefaultFigure6Params()), nil
	case "figure7":
		return RepSpecFigure7(DefaultFigure7Params()), nil
	case "ablation-scheduler":
		p := Table2Params()
		p.SubJobs = 30
		return RepSpecAblationScheduler(p), nil
	case "ablation-smoothing":
		p := DefaultFigure4Params()
		p.ResampleSnapshots = 1
		p.Lambda = 2000
		p.HorizonSteps = 360
		p.Stride = 360
		p.FitWindow = 17280
		return RepSpecAblationSmoothing(p), nil
	case "strategies":
		return RepSpecStrategies(DefaultStrategiesParams()), nil
	case "mechanisms":
		return RepSpecMechanisms(DefaultMechanismsParams()), nil
	}
	return RepSpec{}, fmt.Errorf("experiment: %q has no replication spec", name)
}
