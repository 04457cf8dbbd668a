package experiment

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"tycoongrid/internal/batch"
	"tycoongrid/internal/core"
	"tycoongrid/internal/predict"
	"tycoongrid/internal/sim"
)

// ---------------------------------------------------------------------------
// Ablation A — market vs traditional FIFO batch scheduling.
//
// The paper's §2.1 motivation: "traditional queueing and batch scheduling
// algorithms assume that job priorities can simply be set by administrative
// means ... allocations may not reflect the true relative priorities of
// jobs". This ablation runs the Table 2 workload (two-point funding) under
// both schedulers and reports whether urgency expressed as money changes
// anything.
// ---------------------------------------------------------------------------

// SchedulerComparison holds one scheduler's outcome for the low- and
// high-funded user groups.
type SchedulerComparison struct {
	Scheduler   string
	LowLatency  float64 // mean sub-job completion latency, minutes (incl. waiting)
	HighLatency float64
	LowTime     float64 // task wall time, hours
	HighTime    float64
}

// AblationSchedulerResult compares the market against the batch baseline.
type AblationSchedulerResult struct {
	Market SchedulerComparison
	Batch  SchedulerComparison
}

// RunAblationScheduler runs the two-point funding workload under the Tycoon
// market and under a FIFO batch scheduler with identical hardware.
func RunAblationScheduler(p BestResponseParams) (*AblationSchedulerResult, error) {
	if len(p.Budgets) != p.World.Users {
		return nil, fmt.Errorf("experiment: %d budgets for %d users", len(p.Budgets), p.World.Users)
	}
	// --- Market run (reuses the Table harness). -------------------------
	market, err := RunBestResponseTable(p)
	if err != nil {
		return nil, err
	}
	mLow, mHigh := splitGroups(market.Rows)

	// --- Batch run on identical hardware. --------------------------------
	eng := sim.NewEngine()
	sched, err := batch.New(eng, p.World.Hosts, p.World.CPUsPerHost, p.World.CPUMHz)
	if err != nil {
		return nil, err
	}
	jobs := make([]*batch.Job, p.World.Users)
	chunk := p.ChunkMinutes * 60 * p.World.CPUMHz
	var submitErr error
	for i := 0; i < p.World.Users; i++ {
		i := i
		if err := eng.After(time.Duration(i)*p.Stagger, func() {
			subJobs := make([]float64, p.SubJobs)
			for k := range subJobs {
				subJobs[k] = chunk
			}
			// Money buys nothing here: every job has admin priority 0.
			j, err := sched.Submit(0, subJobs, p.MaxNodes)
			if err != nil && submitErr == nil {
				submitErr = err
			}
			jobs[i] = j
		}); err != nil {
			return nil, err
		}
	}
	eng.RunFor(p.Horizon)
	if submitErr != nil {
		return nil, submitErr
	}
	var bRows []UserRow
	for i, j := range jobs {
		if j == nil || !j.Done() {
			return nil, fmt.Errorf("experiment: batch job %d unfinished", i+1)
		}
		bRows = append(bRows, UserRow{
			User:       fmt.Sprintf("user%d", i+1),
			Budget:     p.Budgets[i],
			TimeHours:  j.Duration().Hours(),
			LatencyMin: (j.MeanWait() + j.MeanLatency()).Minutes(),
		})
	}
	bLow, bHigh := splitGroups(bRows)

	return &AblationSchedulerResult{
		Market: SchedulerComparison{
			Scheduler: "tycoon-market", LowLatency: mLow.LatencyMin, HighLatency: mHigh.LatencyMin,
			LowTime: mLow.TimeHours, HighTime: mHigh.TimeHours,
		},
		Batch: SchedulerComparison{
			Scheduler: "fifo-batch", LowLatency: bLow.LatencyMin, HighLatency: bHigh.LatencyMin,
			LowTime: bLow.TimeHours, HighTime: bHigh.TimeHours,
		},
	}, nil
}

// splitGroups averages the first two rows (low funders) and the rest (high
// funders), matching the Table 2 groups.
func splitGroups(rows []UserRow) (low, high UserRow) {
	n := 0
	for i, r := range rows {
		if i < 2 {
			low.TimeHours += r.TimeHours / 2
			low.LatencyMin += r.LatencyMin / 2
		} else {
			high.TimeHours += r.TimeHours
			high.LatencyMin += r.LatencyMin
			n++
		}
	}
	if n > 0 {
		high.TimeHours /= float64(n)
		high.LatencyMin /= float64(n)
	}
	return low, high
}

// String renders the comparison.
func (r *AblationSchedulerResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %16s %16s %12s %12s\n",
		"scheduler", "lat $100 (min)", "lat $500 (min)", "time $100", "time $500")
	for _, row := range []SchedulerComparison{r.Market, r.Batch} {
		fmt.Fprintf(&b, "%-14s %16.1f %16.1f %11.2fh %11.2fh\n",
			row.Scheduler, row.LowLatency, row.HighLatency, row.LowTime, row.HighTime)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Ablation B — host-cap ranking: utility contribution vs raw bid size.
//
// DESIGN.md flags this choice: when a job's XRSL count caps concurrent
// hosts, ranking candidate hosts by raw bid size keeps the most *expensive*
// hosts (big bids buy contested machines), while ranking by utility
// contribution keeps the best deals. The ablation measures the utility a
// late-arriving user achieves under both rankings.
// ---------------------------------------------------------------------------

// AblationCapResult compares the two ranking rules.
type AblationCapResult struct {
	UtilityRanked float64 // achieved best-response utility
	BidRanked     float64
	HostsUtility  []string
	HostsBid      []string
}

// RunAblationCap sets up a market where half the hosts are contested and
// evaluates the utility a newcomer achieves with each cap rule.
func RunAblationCap() (*AblationCapResult, error) {
	// Build prices directly: 10 hosts, 5 idle (reserve price), 5 contested.
	hosts := make([]core.Host, 10)
	for i := range hosts {
		price := 1.0 / 3600 // idle: reserve
		if i >= 5 {
			price = 50.0 / 3600 // contested
		}
		hosts[i] = core.Host{ID: fmt.Sprintf("h%02d", i), Preference: 5600, Price: price}
	}
	// A budget large enough that the contested hosts enter the best-response
	// support set (with a small budget the optimizer already excludes them
	// and the two rankings coincide).
	budgetRate := 200.0 / 3600
	const capN = 5

	allocs, err := core.BestResponse(budgetRate, hosts)
	if err != nil {
		return nil, err
	}
	eval := func(kept []core.Allocation) ([]string, float64, error) {
		re, err := core.Rebalance(budgetRate, kept)
		if err != nil {
			return nil, 0, err
		}
		ids := make([]string, len(re))
		for i, a := range re {
			ids[i] = a.Host.ID
		}
		sort.Strings(ids)
		return ids, core.Utility(re), nil
	}
	utilityHosts, utilityU, err := eval(core.TopNByUtility(allocs, capN))
	if err != nil {
		return nil, err
	}
	bidHosts, bidU, err := eval(core.TopN(allocs, capN))
	if err != nil {
		return nil, err
	}
	return &AblationCapResult{
		UtilityRanked: utilityU,
		BidRanked:     bidU,
		HostsUtility:  utilityHosts,
		HostsBid:      bidHosts,
	}, nil
}

// String renders the ablation.
func (r *AblationCapResult) String() string {
	return fmt.Sprintf(
		"cap rule          achieved utility   hosts kept\nby-utility        %16.0f   %v\nby-bid-size       %16.0f   %v\n",
		r.UtilityRanked, r.HostsUtility, r.BidRanked, r.HostsBid)
}

// ---------------------------------------------------------------------------
// Ablation C — AR smoothing pre-pass on/off (the paper's §5.4 finding that
// "the basic AR model had problems predicting future prices due to sharp
// price drops ... we applied a smoothing function").
// ---------------------------------------------------------------------------

// AblationSmoothingResult compares forecast errors with and without the
// smoothing-spline pre-pass.
type AblationSmoothingResult struct {
	EpsilonSmoothed float64
	EpsilonRaw      float64
	EpsilonPers     float64
}

// RunAblationSmoothing reuses the Figure 4 pipeline with lambda = 0 as the
// ablated variant.
func RunAblationSmoothing(p Figure4Params) (*AblationSmoothingResult, error) {
	load, err := RunLoad(p.Load)
	if err != nil {
		return nil, err
	}
	xs := resample(load.Prices(load.BusiestID), p.ResampleSnapshots)
	fit := len(xs) / 2

	eval := func(f predict.Forecaster) (float64, error) {
		pr, ms, err := predict.HorizonErrors(f, xs, fit, p.HorizonSteps, p.Stride)
		if err != nil {
			return 0, err
		}
		return predict.PredictionError(pr, ms)
	}
	smoothed, err := eval(predict.NewWindowedSmoothedForecaster(p.Order, p.Lambda, p.FitWindow))
	if err != nil {
		return nil, err
	}
	raw, err := eval(predict.NewWindowedSmoothedForecaster(p.Order, 0, p.FitWindow))
	if err != nil {
		return nil, err
	}
	pers, err := eval(predict.Persistence{})
	if err != nil {
		return nil, err
	}
	return &AblationSmoothingResult{EpsilonSmoothed: smoothed, EpsilonRaw: raw, EpsilonPers: pers}, nil
}

func resample(xs []float64, n int) []float64 {
	if n <= 1 {
		return xs
	}
	out := make([]float64, 0, len(xs)/n)
	for i := 0; i+n <= len(xs); i += n {
		var s float64
		for _, v := range xs[i : i+n] {
			s += v
		}
		out = append(out, s/float64(n))
	}
	return out
}

// String renders the ablation.
func (r *AblationSmoothingResult) String() string {
	return fmt.Sprintf(
		"AR(6) with smoothing pre-pass: epsilon %.2f%%\nAR(6) without smoothing:       epsilon %.2f%%\npersistence benchmark:         epsilon %.2f%%\n",
		r.EpsilonSmoothed*100, r.EpsilonRaw*100, r.EpsilonPers*100)
}

// ---------------------------------------------------------------------------
// Ablation D — reallocation interval (the 10 s default vs coarser markets).
// ---------------------------------------------------------------------------

// AblationIntervalRow is one interval's outcome.
type AblationIntervalRow struct {
	Interval    time.Duration
	HighLatency float64 // minutes, funded group
	LowLatency  float64
}

// AblationIntervalResult sweeps the market reallocation period.
type AblationIntervalResult struct {
	Rows []AblationIntervalRow
}

// RunAblationInterval reruns the Table 2 scenario at several reallocation
// intervals: the agility of a 10 s spot market is what lets highly funded
// jobs take effect immediately.
func RunAblationInterval(intervals []time.Duration) (*AblationIntervalResult, error) {
	if len(intervals) == 0 {
		return nil, errors.New("experiment: no intervals")
	}
	res := &AblationIntervalResult{}
	for _, iv := range intervals {
		p := Table2Params()
		p.SubJobs = 30 // lighter for the sweep
		p.World.Interval = iv
		table, err := RunBestResponseTable(p)
		if err != nil {
			return nil, err
		}
		low, high := splitGroups(table.Rows)
		res.Rows = append(res.Rows, AblationIntervalRow{
			Interval:    iv,
			LowLatency:  low.LatencyMin,
			HighLatency: high.LatencyMin,
		})
	}
	return res, nil
}

// String renders the sweep.
func (r *AblationIntervalResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %16s %16s %8s\n", "interval", "lat $100 (min)", "lat $500 (min)", "ratio")
	for _, row := range r.Rows {
		ratio := 0.0
		if row.HighLatency > 0 {
			ratio = row.LowLatency / row.HighLatency
		}
		fmt.Fprintf(&b, "%-12s %16.1f %16.1f %8.2f\n", row.Interval, row.LowLatency, row.HighLatency, ratio)
	}
	return b.String()
}
