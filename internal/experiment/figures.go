package experiment

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"tycoongrid/internal/mathx"
	"tycoongrid/internal/portfolio"
	"tycoongrid/internal/predict"
	"tycoongrid/internal/rng"
	"tycoongrid/internal/stats"
)

// ---------------------------------------------------------------------------
// Figure 3 — normal-distribution prediction with guarantee levels.
// ---------------------------------------------------------------------------

// Figure3Params configures the budget-vs-capacity prediction curves.
type Figure3Params struct {
	Load       LoadParams
	Guarantees []float64 // e.g. 0.80, 0.90, 0.99
	// BudgetsPerDay to sweep, in credits/day (the paper plots $0-100/day).
	BudgetsPerDay []float64
	// KneeFraction defines the "recommended budget" flattening point.
	KneeFraction float64
}

// DefaultFigure3Params mirrors the paper's Figure 3 axes.
func DefaultFigure3Params() Figure3Params {
	budgets := make([]float64, 21)
	for i := range budgets {
		budgets[i] = float64(i) * 5 // 0..100 $/day
	}
	budgets[0] = 0.5
	// Lighter load than the default so the measured price level sits where
	// the paper's does: the capacity curves then flatten inside the plotted
	// $0-100/day range.
	load := DefaultLoadParams()
	load.MeanInterarrival = 70 * time.Minute
	load.BudgetMedian = 10
	return Figure3Params{
		Load:          load,
		Guarantees:    []float64{0.80, 0.90, 0.99},
		BudgetsPerDay: budgets,
		KneeFraction:  0.2,
	}
}

// Figure3Result holds one capacity curve per guarantee level.
type Figure3Result struct {
	HostID        string
	Mu, Sigma     float64 // measured price stats, credits/second
	CapacityMHz   float64
	BudgetsPerDay []float64
	// CurvesMHz[g][i] is the guaranteed capacity at Guarantees[g] and
	// BudgetsPerDay[i].
	Guarantees   []float64
	CurvesMHz    [][]float64
	KneePerDay   float64 // recommended budget at the 90% level
	MinUsefulMHz float64
}

// RunFigure3 records a price history under load, then sweeps the stateless
// normal-model prediction (§4.2) over budgets and guarantee levels.
func RunFigure3(p Figure3Params) (*Figure3Result, error) {
	if len(p.Guarantees) == 0 || len(p.BudgetsPerDay) == 0 {
		return nil, errors.New("experiment: figure3 needs guarantees and budgets")
	}
	load, err := RunLoad(p.Load)
	if err != nil {
		return nil, err
	}
	hostID := load.BusiestID
	xs := load.Prices(hostID)
	if len(xs) < 100 {
		return nil, errors.New("experiment: price trace too short")
	}
	d := stats.DescribeSample(xs)
	host, err := load.World.Cluster.Host(hostID)
	if err != nil {
		return nil, err
	}
	hp := predict.HostPrice{
		HostID:     hostID,
		Preference: host.Market.CapacityMHz(),
		Mu:         d.Mean,
		Sigma:      d.StdDev,
	}
	res := &Figure3Result{
		HostID:        hostID,
		Mu:            d.Mean,
		Sigma:         d.StdDev,
		CapacityMHz:   hp.Preference,
		BudgetsPerDay: p.BudgetsPerDay,
		Guarantees:    p.Guarantees,
	}
	for _, g := range p.Guarantees {
		curve := make([]float64, len(p.BudgetsPerDay))
		for i, b := range p.BudgetsPerDay {
			rate := b / 86400 // credits/day -> credits/second spend rate
			c, err := predict.GuaranteedCapacityMHz(hp, rate, g)
			if err != nil {
				return nil, err
			}
			curve[i] = c
		}
		res.CurvesMHz = append(res.CurvesMHz, curve)
	}
	maxRate := p.BudgetsPerDay[len(p.BudgetsPerDay)-1] / 86400
	knee, err := predict.Knee(hp, 0.90, p.KneeFraction, maxRate)
	if err != nil {
		return nil, err
	}
	res.KneePerDay = knee * 86400
	// "To get any kind of feasible performance ... at least $X/day":
	// smallest budget delivering 10% of the host at the loosest guarantee.
	lo := p.Guarantees[0]
	for _, b := range p.BudgetsPerDay {
		c, err := predict.GuaranteedCapacityMHz(hp, b/86400, lo)
		if err != nil {
			return nil, err
		}
		if c >= hp.Preference*0.10 {
			res.MinUsefulMHz = b
			break
		}
	}
	return res, nil
}

// String renders the curves as aligned columns.
func (r *Figure3Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "host %s: mu=%.6f sigma=%.6f credits/s, capacity %.0f MHz\n",
		r.HostID, r.Mu, r.Sigma, r.CapacityMHz)
	fmt.Fprintf(&b, "%12s", "Budget($/d)")
	for _, g := range r.Guarantees {
		fmt.Fprintf(&b, " %9s", fmt.Sprintf("%.0f%%(MHz)", g*100))
	}
	b.WriteByte('\n')
	for i, bud := range r.BudgetsPerDay {
		fmt.Fprintf(&b, "%12.1f", bud)
		for g := range r.Guarantees {
			fmt.Fprintf(&b, " %9.0f", r.CurvesMHz[g][i])
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "recommended budget (knee, 90%%): %.1f $/day\n", r.KneePerDay)
	return b.String()
}

// ---------------------------------------------------------------------------
// Figure 4 — AR(6) one-hour forecast with smoothing vs persistence.
// ---------------------------------------------------------------------------

// Figure4Params configures the AR prediction experiment.
type Figure4Params struct {
	Load LoadParams
	// Order of the AR model (paper: 6) and smoothing strength.
	Order  int
	Lambda float64
	// Horizon is the forecast lead (paper: one hour of 10 s snapshots).
	HorizonSteps int
	// Stride between forecast origins in the validation half.
	Stride int
	// FitWindow restricts each walk-forward fit to the trailing N snapshots
	// (0 = whole history).
	FitWindow int
	// ResampleSnapshots aggregates the 10 s price snapshots into buckets of
	// this many snapshots (mean) before modeling; 1 = raw. The AR lags then
	// live on the coarser timescale, where hour-ahead mean reversion is
	// visible to a low-order model.
	ResampleSnapshots int
}

// DefaultFigure4Params mirrors the paper: AR(6), one-hour forecasts, 40 h of
// history split into 20 h fit + 20 h validation.
func DefaultFigure4Params() Figure4Params {
	load := DefaultLoadParams()
	// The paper's 40 h trace came from its competing-batch-job experiments:
	// waves of proteome-scan batches whose completions produce the sharp,
	// quasi-periodic price drops of §5.4. Reproduce that structure — a wave
	// of four batch submissions every four hours over a Poisson background.
	load.World.Hosts = 6
	load.Hours = 40
	load.MeanInterarrival = 90 * time.Minute
	load.BatchPeriod = 4 * time.Hour
	load.BatchJobs = 4
	return Figure4Params{
		Load:              load,
		Order:             6,
		Lambda:            10,
		HorizonSteps:      6,   // one hour of 10-minute buckets
		Stride:            3,   // forecast origins every 30 minutes
		FitWindow:         576, // trailing four days of 10-minute buckets
		ResampleSnapshots: 60,  // 10 s snapshots -> 10-minute buckets
	}
}

// Figure4Result reports the epsilon prediction errors.
type Figure4Result struct {
	HostID      string
	Points      int
	EpsilonAR   float64 // AR(k) with smoothing pre-pass
	EpsilonPers float64 // persistence benchmark
	// Series is the (resampled) price trace the models were evaluated on,
	// for CSV export.
	Series []float64
}

// RunFigure4 records a 40 h price trace, fits the smoothed AR model
// walk-forward on the first half, and compares epsilon against persistence
// on the second half.
func RunFigure4(p Figure4Params) (*Figure4Result, error) {
	if p.Order < 1 || p.HorizonSteps < 1 || p.Stride < 1 {
		return nil, errors.New("experiment: bad figure4 parameters")
	}
	load, err := RunLoad(p.Load)
	if err != nil {
		return nil, err
	}
	xs := resample(load.Prices(load.BusiestID), p.ResampleSnapshots)
	if len(xs) < 4*p.HorizonSteps {
		return nil, fmt.Errorf("experiment: trace too short (%d points)", len(xs))
	}
	fit := len(xs) / 2

	ar := predict.NewWindowedSmoothedForecaster(p.Order, p.Lambda, p.FitWindow)
	predAR, measAR, err := predict.HorizonErrors(ar, xs, fit, p.HorizonSteps, p.Stride)
	if err != nil {
		return nil, err
	}
	epsAR, err := predict.PredictionError(predAR, measAR)
	if err != nil {
		return nil, err
	}
	predP, measP, err := predict.HorizonErrors(predict.Persistence{}, xs, fit, p.HorizonSteps, p.Stride)
	if err != nil {
		return nil, err
	}
	epsP, err := predict.PredictionError(predP, measP)
	if err != nil {
		return nil, err
	}
	return &Figure4Result{
		HostID:      load.BusiestID,
		Points:      len(xs),
		EpsilonAR:   epsAR,
		EpsilonPers: epsP,
		Series:      xs,
	}, nil
}

// String renders the comparison like the paper's §5.4 numbers.
func (r *Figure4Result) String() string {
	return fmt.Sprintf(
		"host %s, %d price snapshots\nAR(6)+smoothing 1h-forecast epsilon: %.2f%%\npersistence benchmark epsilon:       %.2f%%\n",
		r.HostID, r.Points, r.EpsilonAR*100, r.EpsilonPers*100)
}

// ---------------------------------------------------------------------------
// Figure 5 — risk-free portfolio vs equal shares.
// ---------------------------------------------------------------------------

// Figure5Params configures the portfolio risk-hedging simulation: the paper
// picks 10 hosts whose mean performance, performance variance, and variance
// of variances are all drawn from normal distributions.
type Figure5Params struct {
	Hosts     int
	Steps     int // performance snapshots
	TrainFrac float64
	MeanPerf  float64 // mean of host mean performance
	MeanSD    float64 // spread of host means
	VarMean   float64 // mean of host performance SDs
	VarSD     float64 // spread of host performance SDs (variance of variances)
	Seed      int64
}

// DefaultFigure5Params mirrors the paper's setup.
func DefaultFigure5Params() Figure5Params {
	return Figure5Params{
		Hosts: 10, Steps: 300, TrainFrac: 0.33,
		MeanPerf: 5, MeanSD: 0.3,
		VarMean: 0.6, VarSD: 0.5,
		Seed: 2006,
	}
}

// Figure5Result compares the two portfolios over the evaluation window.
type Figure5Result struct {
	Steps            int
	RiskFree, Equal  []float64 // aggregate performance series
	WorstRF, WorstEQ float64
	P5RF, P5EQ       float64 // 5th percentile (downside)
	StdRF, StdEQ     float64
	MeanRF, MeanEQ   float64
	Weights          []float64
}

// RunFigure5 builds random host performance processes, computes the
// risk-free (minimum-variance) portfolio from a training prefix, and tracks
// both portfolios' aggregate performance over the remaining steps.
func RunFigure5(p Figure5Params) (*Figure5Result, error) {
	if p.Hosts < 2 || p.Steps < 10 || p.TrainFrac <= 0 || p.TrainFrac >= 1 {
		return nil, errors.New("experiment: bad figure5 parameters")
	}
	src := rng.New(p.Seed)
	means := make([]float64, p.Hosts)
	sds := make([]float64, p.Hosts)
	for i := range means {
		means[i] = src.Normal(p.MeanPerf, p.MeanSD)
		sds[i] = math.Abs(src.Normal(p.VarMean, p.VarSD)) + 0.02
	}
	series := make([][]float64, p.Hosts)
	for i := range series {
		series[i] = make([]float64, p.Steps)
		for k := range series[i] {
			// Variance of variances: each step's SD jitters around the host SD.
			sd := math.Abs(src.Normal(sds[i], p.VarSD/4)) + 0.01
			series[i][k] = src.Normal(means[i], sd)
		}
	}
	train := int(float64(p.Steps) * p.TrainFrac)
	trainSeries := make([][]float64, p.Hosts)
	for i := range series {
		trainSeries[i] = series[i][:train]
	}
	cov, err := portfolio.CovarianceFromSeries(trainSeries)
	if err != nil {
		return nil, err
	}
	assets := make([]portfolio.Asset, p.Hosts)
	trainMeans := portfolio.MeansFromSeries(trainSeries)
	for i := range assets {
		assets[i] = portfolio.Asset{ID: fmt.Sprintf("h%02d", i), Return: trainMeans[i]}
	}
	rf, err := portfolio.MinimumVariance(assets, cov)
	if err != nil {
		return nil, err
	}
	eq, err := portfolio.EqualShares(assets)
	if err != nil {
		return nil, err
	}

	res := &Figure5Result{Steps: p.Steps - train, Weights: rf.Weights}
	evalAgg := func(w []float64, k int) float64 {
		var s float64
		for i := range w {
			s += w[i] * series[i][k]
		}
		return s
	}
	var wrf, weq mathx.Welford
	res.WorstRF, res.WorstEQ = math.Inf(1), math.Inf(1)
	for k := train; k < p.Steps; k++ {
		a := evalAgg(rf.Weights, k)
		b := evalAgg(eq.Weights, k)
		res.RiskFree = append(res.RiskFree, a)
		res.Equal = append(res.Equal, b)
		wrf.Add(a)
		weq.Add(b)
		if a < res.WorstRF {
			res.WorstRF = a
		}
		if b < res.WorstEQ {
			res.WorstEQ = b
		}
	}
	res.MeanRF, res.MeanEQ = wrf.Mean(), weq.Mean()
	res.StdRF, res.StdEQ = wrf.StdDev(), weq.StdDev()
	res.P5RF = percentileOf(res.RiskFree, 0.05)
	res.P5EQ = percentileOf(res.Equal, 0.05)
	return res, nil
}

func percentileOf(xs []float64, q float64) float64 {
	cp := slices.Clone(xs)
	slices.Sort(cp)
	return stats.Percentile(cp, q)
}

// String summarizes the downside-risk comparison.
func (r *Figure5Result) String() string {
	return fmt.Sprintf(
		"%d evaluation steps\n%-12s %10s %10s %10s %10s\n%-12s %10.3f %10.3f %10.3f %10.3f\n%-12s %10.3f %10.3f %10.3f %10.3f\n",
		r.Steps,
		"portfolio", "mean", "stddev", "worst", "p5",
		"risk-free", r.MeanRF, r.StdRF, r.WorstRF, r.P5RF,
		"equal-share", r.MeanEQ, r.StdEQ, r.WorstEQ, r.P5EQ)
}

// ---------------------------------------------------------------------------
// Figure 6 — price distribution in hour/day/week moving windows.
// ---------------------------------------------------------------------------

// Figure6Params configures the window-distribution experiment.
type Figure6Params struct {
	Load  LoadParams
	Slots int
	// Window sizes in snapshots (10 s each): hour=360, day=8640, week=60480.
	Windows map[string]int
}

// DefaultFigure6Params runs a week of diurnal market load.
func DefaultFigure6Params() Figure6Params {
	load := DefaultLoadParams()
	load.Hours = 7 * 24
	load.World.Hosts = 6
	load.World.Users = 6
	load.MeanInterarrival = 40 * time.Minute
	// Diurnal demand: busy days, quiet nights, quiet final hour.
	load.Intensity = func(at time.Duration) float64 {
		h := math.Mod(at.Hours(), 24)
		f := 0.4 + 0.8*math.Sin(math.Pi*h/24)
		if at > 167*time.Hour {
			f = 0.05
		}
		return f
	}
	return Figure6Params{
		Load:  load,
		Slots: 10,
		Windows: map[string]int{
			"hour": 360,
			"day":  8640,
			"week": 60480,
		},
	}
}

// WindowReport is one window's reported distribution and moments.
type WindowReport struct {
	Name    string
	Buckets []stats.Bucket
	Moments stats.Snapshot
}

// Figure6Result holds the three window reports.
type Figure6Result struct {
	HostID  string
	Windows []WindowReport
}

// RunFigure6 replays the recorded price trace through the dual-array window
// distributions and smoothed moment trackers of §4.5.
func RunFigure6(p Figure6Params) (*Figure6Result, error) {
	if p.Slots < 2 || len(p.Windows) == 0 {
		return nil, errors.New("experiment: bad figure6 parameters")
	}
	load, err := RunLoad(p.Load)
	if err != nil {
		return nil, err
	}
	xs := load.Prices(load.BusiestID)

	type tracker struct {
		name string
		dist *stats.WindowDistribution
		mom  *stats.MovingMoments
	}
	var ts []tracker
	for _, name := range sortedKeys(p.Windows) {
		n := p.Windows[name]
		d, err := stats.NewWindowDistribution(n, p.Slots)
		if err != nil {
			return nil, err
		}
		m, err := stats.NewMovingMoments(n)
		if err != nil {
			return nil, err
		}
		ts = append(ts, tracker{name: name, dist: d, mom: m})
	}
	for _, x := range xs {
		for _, t := range ts {
			t.dist.Observe(x)
			t.mom.Observe(x)
		}
	}
	res := &Figure6Result{HostID: load.BusiestID}
	for _, t := range ts {
		res.Windows = append(res.Windows, WindowReport{
			Name:    t.name,
			Buckets: t.dist.Buckets(),
			Moments: t.mom.Snapshot(),
		})
	}
	return res, nil
}

// sortedKeys returns the window names smallest window first, equal sizes by
// name, so the catalog's columns and the run's rows agree.
func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b string) int {
		return cmp.Or(cmp.Compare(m[a], m[b]), strings.Compare(a, b))
	})
	return keys
}

// String renders the densities per bracket, like the paper's bar chart.
func (r *Figure6Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "host %s price distribution\n", r.HostID)
	for _, w := range r.Windows {
		fmt.Fprintf(&b, "window %-5s mean=%.5f sd=%.5f skew=%+.2f kurt=%+.2f\n",
			w.Name, w.Moments.Mean, w.Moments.StdDev, w.Moments.Skewness, w.Moments.Kurtosis)
		for _, bk := range w.Buckets {
			fmt.Fprintf(&b, "  [%.5f, %.5f): %5.1f%%\n", bk.Lo, bk.Hi, bk.Proportion*100)
		}
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Figure 7 — window approximation of Normal, Exponential, Beta inputs.
// ---------------------------------------------------------------------------

// Figure7Params configures the approximation-accuracy simulation.
type Figure7Params struct {
	Window int // snapshots per window
	Slots  int
	Seed   int64
}

// DefaultFigure7Params mirrors the paper: lag = window/2, uniform noise.
func DefaultFigure7Params() Figure7Params {
	return Figure7Params{Window: 400, Slots: 20, Seed: 2006}
}

// DistReport compares a window approximation against the actual sample.
type DistReport struct {
	Name           string
	ApproxBuckets  []stats.Bucket
	ActualMean     float64
	ApproxMean     float64
	TotalVariation float64 // distance between approx and actual densities
}

// Figure7Result holds one report per tested distribution.
type Figure7Result struct {
	Reports []DistReport
}

// RunFigure7 feeds each distribution through the dual-array window scheme
// with a half-window lag of uniform noise in front (maximum contamination)
// and measures how closely the approximation tracks the actual sample.
func RunFigure7(p Figure7Params) (*Figure7Result, error) {
	if p.Window < 10 || p.Slots < 2 {
		return nil, errors.New("experiment: bad figure7 parameters")
	}
	src := rng.New(p.Seed)
	dists := []struct {
		name string
		draw func() float64
	}{
		{"Norm(0.5,0.15)", func() float64 { return src.Normal(0.5, 0.15) }},
		{"Exp(2)", func() float64 { return src.Exponential(2) }},
		{"Beta(5,1)", func() float64 { return src.Beta(5, 1) }},
	}
	res := &Figure7Result{}
	for _, d := range dists {
		w, err := stats.NewWindowDistribution(p.Window, p.Slots)
		if err != nil {
			return nil, err
		}
		// Half a window of uniform noise: "at this point there is a maximum
		// influence, or noise, from non-window data".
		for i := 0; i < p.Window/2; i++ {
			w.Observe(src.Uniform(0, 1))
		}
		actual := make([]float64, 0, 2*p.Window)
		for i := 0; i < 2*p.Window; i++ {
			x := d.draw()
			actual = append(actual, x)
			w.Observe(x)
		}
		buckets := w.Buckets()
		// Bin the actual sample on the same grid.
		actProps := make([]float64, len(buckets))
		var actMean float64
		for _, x := range actual {
			actMean += x
			for i, bk := range buckets {
				if x >= bk.Lo && (x < bk.Hi || i == len(buckets)-1) {
					actProps[i]++
					break
				}
			}
		}
		actMean /= float64(len(actual))
		var tv, approxMean float64
		for i, bk := range buckets {
			ap := actProps[i] / float64(len(actual))
			tv += math.Abs(bk.Proportion-ap) / 2
			approxMean += bk.Proportion * (bk.Lo + bk.Hi) / 2
		}
		res.Reports = append(res.Reports, DistReport{
			Name:           d.name,
			ApproxBuckets:  buckets,
			ActualMean:     actMean,
			ApproxMean:     approxMean,
			TotalVariation: tv,
		})
	}
	return res, nil
}

// String renders the per-distribution accuracy summary.
func (r *Figure7Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %12s %12s %8s\n", "distribution", "actual-mean", "approx-mean", "TV-dist")
	for _, rep := range r.Reports {
		fmt.Fprintf(&b, "%-16s %12.4f %12.4f %8.4f\n",
			rep.Name, rep.ActualMean, rep.ApproxMean, rep.TotalVariation)
	}
	return b.String()
}
