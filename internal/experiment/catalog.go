package experiment

import (
	"fmt"
	"strings"
	"time"

	"tycoongrid/internal/strategy"
	"tycoongrid/internal/tracing"
)

// This file is the one place an experiment is declared. Each family has a
// constructor that closes over its parameters and knows where its seed and
// tracer live; Catalog lists the fourteen marketbench runs with the paper's
// defaults. marketbench, the replication runner, the benchmarks and the docs
// check all read these declarations and enumerate nothing themselves.
//
// Adding an experiment is one constructor here (next to a Run* harness and
// its *Result) plus one Catalog() line.

// Result is what one run of an experiment returns: the printable rows and,
// for a replicable experiment, one value per Experiment.Cols entry. A family
// with a plot artifact also has WriteCSV(dir string) error; callers find it
// by type assertion.
type Result interface {
	String() string
	Metrics() []float64
}

// Experiment is one named, runnable table or figure.
type Experiment struct {
	Name  string
	Title string
	// Cols names the values Result.Metrics returns. Nil marks a
	// deterministic sweep, which Replicate refuses and marketbench runs once
	// whatever -reps says.
	Cols []string
	// Run executes one fully seeded copy of the experiment under tracer tr
	// (nil: the process default). Replicate calls it from several
	// goroutines at once, so it works on its own copy of the parameters and
	// shares nothing across calls.
	Run func(seed int64, tr *tracing.Tracer) (Result, error)
}

// Catalog returns every experiment marketbench runs, in the paper's order,
// with the paper-default parameters.
func Catalog() []Experiment {
	// The scheduler ablation is the Table 2 workload with more, shorter
	// sub-jobs, so the batch queue has something to reorder.
	scheduler := Table2Params()
	scheduler.SubJobs = 30
	// The smoothing ablation forecasts the raw 10 s snapshots, where the
	// sharp batch-completion price drops live: one-hour horizon and stride,
	// a two-day fit window, a pre-pass strong enough to matter.
	smoothing := DefaultFigure4Params()
	smoothing.ResampleSnapshots = 1
	smoothing.Lambda = 2000
	smoothing.HorizonSteps = 360
	smoothing.Stride = 360
	smoothing.FitWindow = 17280

	return []Experiment{
		Table("table1", "Equal distribution of funds (paper Table 1)", Table1Params()),
		Table("table2", "Two-point distribution of funds 100/100/500/500/500 (paper Table 2)", Table2Params()),
		Figure3(DefaultFigure3Params()),
		Figure4(DefaultFigure4Params()),
		Figure5(DefaultFigure5Params()),
		Figure6(DefaultFigure6Params()),
		Figure7(DefaultFigure7Params()),
		Strategies(DefaultStrategiesParams()),
		Mechanisms(DefaultMechanismsParams()),
		AblationScheduler(scheduler),
		AblationCap(),
		AblationSmoothing(smoothing),
		AblationInterval([]time.Duration{10 * time.Second, time.Minute, 5 * time.Minute}),
		SLA(DefaultSLAParams()),
	}
}

// Lookup returns the catalog entry called name.
func Lookup(name string) (Experiment, bool) {
	for _, e := range Catalog() {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// result turns a harness's (*XResult, error) into (Result, error) without
// wrapping a nil pointer in a non-nil interface.
func result[R Result](res R, err error) (Result, error) {
	if err != nil {
		return nil, err
	}
	return res, nil
}

// csvColumn makes a strategy or mechanism name usable in a CSV header.
func csvColumn(name string) string { return strings.ReplaceAll(name, "-", "_") }

// namedTable is a table result that knows which file it exports to.
type namedTable struct {
	*TableResult
	file string
}

func (t namedTable) WriteCSV(dir string) error { return t.TableResult.WriteCSV(dir, t.file) }

// Metrics reports the per-group outcome, four values a group.
func (r *TableResult) Metrics() []float64 {
	var out []float64
	for _, g := range r.Groups {
		out = append(out, g.TimeHours, g.CostPerH, g.LatencyMin, g.Nodes)
	}
	return out
}

// Table declares a best-response table scenario (Table 1 or 2); its columns
// follow the budget grouping (u1-2_time_h ... u3-5_nodes) and its artifact is
// <name>.csv.
func Table(name, title string, p BestResponseParams) Experiment {
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
	return Experiment{Name: name, Title: title, Cols: cols,
		Run: func(seed int64, tr *tracing.Tracer) (Result, error) {
			q := p
			q.World.Seed, q.World.Tracer = seed, tr
			res, err := RunBestResponseTable(q)
			return result(namedTable{res, name + ".csv"}, err)
		}}
}

func (r *AblationSchedulerResult) Metrics() []float64 {
	return []float64{
		r.Market.LowLatency, r.Market.HighLatency, r.Market.LowTime, r.Market.HighTime,
		r.Batch.LowLatency, r.Batch.HighLatency, r.Batch.LowTime, r.Batch.HighTime,
	}
}

// AblationScheduler declares the market-vs-batch comparison.
func AblationScheduler(p BestResponseParams) Experiment {
	return Experiment{
		Name:  "ablation-scheduler",
		Title: "Market vs FIFO batch scheduling on the Table 2 workload",
		Cols: []string{
			"market_low_lat_min", "market_high_lat_min", "market_low_time_h", "market_high_time_h",
			"batch_low_lat_min", "batch_high_lat_min", "batch_low_time_h", "batch_high_time_h",
		},
		Run: func(seed int64, tr *tracing.Tracer) (Result, error) {
			q := p
			q.World.Seed, q.World.Tracer = seed, tr
			return result(RunAblationScheduler(q))
		}}
}

// Metrics reports the measured price moments, the budget recommendations and
// every point of each guarantee curve, so the mean curve carries a CI band.
func (r *Figure3Result) Metrics() []float64 {
	out := []float64{r.Mu, r.Sigma, r.KneePerDay, r.MinUsefulMHz}
	for _, curve := range r.CurvesMHz {
		out = append(out, curve...)
	}
	return out
}

// Figure3 declares the normal-model prediction experiment.
func Figure3(p Figure3Params) Experiment {
	cols := []string{"mu", "sigma", "knee_per_day", "min_useful_per_day"}
	for _, g := range p.Guarantees {
		for _, b := range p.BudgetsPerDay {
			cols = append(cols, fmt.Sprintf("cap_p%02.0f_b%g", g*100, b))
		}
	}
	return Experiment{
		Name:  "figure3",
		Title: "Normal-distribution prediction with guarantee levels (paper Figure 3)",
		Cols:  cols,
		Run: func(seed int64, tr *tracing.Tracer) (Result, error) {
			q := p
			q.Load.World.Seed, q.Load.World.Tracer = seed, tr
			return result(RunFigure3(q))
		}}
}

func (r *Figure4Result) Metrics() []float64 {
	return []float64{r.EpsilonAR, r.EpsilonPers, float64(r.Points)}
}

// Figure4 declares the AR-forecast comparison.
func Figure4(p Figure4Params) Experiment {
	return Experiment{
		Name:  "figure4",
		Title: "AR(6) one-hour forecast vs persistence benchmark (paper Figure 4)",
		Cols:  []string{"eps_ar", "eps_pers", "points"},
		Run: func(seed int64, tr *tracing.Tracer) (Result, error) {
			q := p
			q.Load.World.Seed, q.Load.World.Tracer = seed, tr
			return result(RunFigure4(q))
		}}
}

func (r *AblationSmoothingResult) Metrics() []float64 {
	return []float64{r.EpsilonSmoothed, r.EpsilonRaw, r.EpsilonPers}
}

// AblationSmoothing declares the smoothing-pre-pass ablation.
func AblationSmoothing(p Figure4Params) Experiment {
	return Experiment{
		Name:  "ablation-smoothing",
		Title: "AR smoothing pre-pass ablation (raw 10 s snapshots)",
		Cols:  []string{"eps_smoothed", "eps_raw", "eps_pers"},
		Run: func(seed int64, tr *tracing.Tracer) (Result, error) {
			q := p
			q.Load.World.Seed, q.Load.World.Tracer = seed, tr
			return result(RunAblationSmoothing(q))
		}}
}

func (r *Figure5Result) Metrics() []float64 {
	return []float64{
		r.MeanRF, r.MeanEQ, r.StdRF, r.StdEQ,
		r.WorstRF, r.WorstEQ, r.P5RF, r.P5EQ,
	}
}

// Figure5 declares the portfolio downside-risk comparison. It builds no
// world, so the tracer has nothing to attach to.
func Figure5(p Figure5Params) Experiment {
	return Experiment{
		Name:  "figure5",
		Title: "Risk-free portfolio vs equal shares (paper Figure 5)",
		Cols: []string{
			"mean_rf", "mean_eq", "std_rf", "std_eq",
			"worst_rf", "worst_eq", "p5_rf", "p5_eq",
		},
		Run: func(seed int64, _ *tracing.Tracer) (Result, error) {
			q := p
			q.Seed = seed
			return result(RunFigure5(q))
		}}
}

// Metrics reports the four moments of each window.
func (r *Figure6Result) Metrics() []float64 {
	var out []float64
	for _, w := range r.Windows {
		out = append(out, w.Moments.Mean, w.Moments.StdDev, w.Moments.Skewness, w.Moments.Kurtosis)
	}
	return out
}

// Figure6 declares the moving-window distribution experiment.
func Figure6(p Figure6Params) Experiment {
	var cols []string
	for _, n := range sortedKeys(p.Windows) {
		for _, m := range []string{"mean", "sd", "skew", "kurt"} {
			cols = append(cols, n+"_"+m)
		}
	}
	return Experiment{
		Name:  "figure6",
		Title: "Price distribution in hour/day/week windows (paper Figure 6)",
		Cols:  cols,
		Run: func(seed int64, tr *tracing.Tracer) (Result, error) {
			q := p
			q.Load.World.Seed, q.Load.World.Tracer = seed, tr
			return result(RunFigure6(q))
		}}
}

func (r *Figure7Result) Metrics() []float64 {
	var out []float64
	for _, rep := range r.Reports {
		out = append(out, rep.TotalVariation, rep.ApproxMean, rep.ActualMean)
	}
	return out
}

// Figure7 declares the window-approximation accuracy experiment; like
// Figure 5 it is pure sampling and takes no tracer.
func Figure7(p Figure7Params) Experiment {
	var cols []string
	for _, d := range []string{"norm", "exp", "beta"} {
		cols = append(cols, d+"_tv", d+"_approx_mean", d+"_actual_mean")
	}
	return Experiment{
		Name:  "figure7",
		Title: "Window approximation of Normal/Exp/Beta inputs (paper Figure 7)",
		Cols:  cols,
		Run: func(seed int64, _ *tracing.Tracer) (Result, error) {
			q := p
			q.Seed = seed
			return result(RunFigure7(q))
		}}
}

func (r *StrategiesResult) Metrics() []float64 {
	var out []float64
	for _, o := range r.Outcomes {
		out = append(out, o.MeanCost, o.MeanMakespanMin, o.Volatility, o.PredMAE)
	}
	return out
}

// Strategies declares the matchmaking-strategy comparison: cost, makespan,
// volatility and prediction error per strategy (all registered ones when
// p.Strategies is empty).
func Strategies(p StrategiesParams) Experiment {
	if len(p.Strategies) == 0 {
		p.Strategies = strategy.Names()
	}
	var cols []string
	for _, n := range p.Strategies {
		short := csvColumn(n)
		cols = append(cols, short+"_cost", short+"_mksp_min", short+"_vol", short+"_prederr")
	}
	return Experiment{
		Name:  "strategies",
		Title: "Matchmaking strategy comparison on a bursty/steady partitioned grid",
		Cols:  cols,
		Run: func(seed int64, tr *tracing.Tracer) (Result, error) {
			q := p
			q.World.Seed, q.World.Tracer = seed, tr
			return result(RunStrategies(q))
		}}
}

func (r *MechanismsResult) Metrics() []float64 {
	var out []float64
	for _, row := range r.Rows {
		conserved := 0.0
		if row.MoneyConserved {
			conserved = 1
		}
		out = append(out, float64(row.JobsDone), row.CostPerJob,
			row.ChargedCredits, row.Welfare, row.TruthGain, conserved)
	}
	return out
}

// Mechanisms declares the clearing-rule sweep, one column group per rule.
func Mechanisms(p MechanismsParams) Experiment {
	var cols []string
	for _, name := range p.Mechanisms {
		for _, m := range []string{"done", "cost_per_job", "charged", "welfare", "truth_gain", "conserved"} {
			cols = append(cols, csvColumn(name)+"_"+m)
		}
	}
	return Experiment{
		Name:  "mechanisms",
		Title: "Clearing-rule comparison: proportional share vs posted price vs VCG",
		Cols:  cols,
		Run: func(seed int64, tr *tracing.Tracer) (Result, error) {
			q := p
			q.World.Seed, q.World.Tracer = seed, tr
			return result(RunMechanisms(q))
		}}
}

// The results of the experiments without Cols have no metrics.
func (*AblationCapResult) Metrics() []float64      { return nil }
func (*AblationIntervalResult) Metrics() []float64 { return nil }
func (*SLAResult) Metrics() []float64              { return nil }

// AblationCap declares the host-cap ranking comparison on its fixed scenario.
func AblationCap() Experiment {
	return Experiment{
		Name:  "ablation-cap",
		Title: "Host-cap ranking: utility contribution vs raw bid size",
		Run: func(int64, *tracing.Tracer) (Result, error) {
			return result(RunAblationCap())
		}}
}

// AblationInterval declares the reallocation-interval sweep.
func AblationInterval(intervals []time.Duration) Experiment {
	return Experiment{
		Name:  "ablation-interval",
		Title: "Reallocation-interval sweep on the Table 2 workload",
		Run: func(int64, *tracing.Tracer) (Result, error) {
			return result(RunAblationInterval(intervals))
		}}
}

// SLA declares the SLA pricing calibration: one seeded load trace, priced
// under both models. It has never had replication columns, so -reps runs it
// once, like the two sweeps above.
func SLA(p SLAParams) Experiment {
	return Experiment{
		Name:  "sla",
		Title: "SLA pricing calibration, normal vs empirical model (paper §7 future work)",
		Run: func(seed int64, tr *tracing.Tracer) (Result, error) {
			q := p
			q.Load.World.Seed, q.Load.World.Tracer = seed, tr
			return result(RunSLACalibration(q))
		}}
}
