package experiment

import (
	"slices"
	"testing"
	"time"
)

func TestRunLoadProducesTraces(t *testing.T) {
	p := DefaultLoadParams()
	p.Hours = 6
	res, err := RunLoad(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.JobsSent == 0 {
		t.Fatal("no jobs submitted")
	}
	if res.BusiestID == "" {
		t.Fatal("no busiest host")
	}
	// 6 hours of 10 s ticks = 2160 snapshots, every one of them.
	vals := res.Prices(res.BusiestID)
	if len(vals) != 2160 {
		t.Fatalf("trace holds %d snapshots, want 2160", len(vals))
	}
	// Prices vary under load.
	min, max := vals[0], vals[0]
	for _, v := range vals {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if max <= min {
		t.Error("price never moved")
	}
}

// Of hosts with equal mean prices the first in ID order is the busiest, and a
// host without samples is never picked.
func TestBusiestHostTieBreak(t *testing.T) {
	prices := map[string][]float64{
		"h00": {0.5},
		"h01": {1, 3},
		"h02": {2, 2},
		"h03": {},
		"h04": {2},
	}
	get := func(h string) []float64 { return prices[h] }
	if got := busiestHost([]string{"h00", "h01", "h02", "h03", "h04"}, get); got != "h01" {
		t.Errorf("busiest = %q, want h01, the first of three at mean 2", got)
	}
	if got := busiestHost([]string{"h03"}, get); got != "" {
		t.Errorf("busiest of a host without samples = %q, want none", got)
	}
}

// Windows of equal size are ordered by name, so Figure6's catalog columns and
// RunFigure6's rows name the same window at every position; map iteration
// order used to decide.
func TestSortedKeysOrdersTiesByName(t *testing.T) {
	windows := map[string]int{"shift": 360, "day": 8640, "hour": 360}
	want := []string{"hour", "shift", "day"}
	for i := 0; i < 200; i++ {
		if got := sortedKeys(windows); !slices.Equal(got, want) {
			t.Fatalf("try %d: sortedKeys = %v, want %v", i, got, want)
		}
	}
}

func TestRunLoadValidation(t *testing.T) {
	p := DefaultLoadParams()
	p.Hours = 0
	if _, err := RunLoad(p); err == nil {
		t.Error("zero hours accepted")
	}
	p = DefaultLoadParams()
	p.MeanInterarrival = 0
	if _, err := RunLoad(p); err == nil {
		t.Error("zero interarrival accepted")
	}
}

func TestFigure3Shape(t *testing.T) {
	p := DefaultFigure3Params()
	p.Load.Hours = 8
	res, err := RunFigure3(p)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res)
	if len(res.CurvesMHz) != 3 {
		t.Fatalf("curves = %d", len(res.CurvesMHz))
	}
	// Each curve increases in budget and stays below host capacity.
	for g, curve := range res.CurvesMHz {
		for i := 1; i < len(curve); i++ {
			if curve[i] < curve[i-1] {
				t.Errorf("curve %d not increasing at %d", g, i)
			}
			if curve[i] > res.CapacityMHz {
				t.Errorf("curve %d exceeds capacity", g)
			}
		}
	}
	// Ordering: looser guarantee >= stricter at every budget.
	for i := range res.BudgetsPerDay {
		if !(res.CurvesMHz[0][i] >= res.CurvesMHz[1][i] && res.CurvesMHz[1][i] >= res.CurvesMHz[2][i]) {
			t.Errorf("guarantee ordering broken at budget %v: %v %v %v",
				res.BudgetsPerDay[i], res.CurvesMHz[0][i], res.CurvesMHz[1][i], res.CurvesMHz[2][i])
		}
	}
	if res.KneePerDay <= 0 {
		t.Error("no knee found")
	}
}

func TestFigure4ARvsPersistence(t *testing.T) {
	res, err := RunFigure4(DefaultFigure4Params())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res)
	if res.EpsilonAR <= 0 || res.EpsilonPers <= 0 {
		t.Fatalf("degenerate epsilons: %+v", res)
	}
	// Paper shape (§5.4): the smoothed AR(6) one-hour forecast beats the
	// persistence benchmark (8.96% vs 9.44% on the paper's testbed).
	if res.EpsilonAR >= res.EpsilonPers {
		t.Errorf("AR epsilon %.4f not better than persistence %.4f",
			res.EpsilonAR, res.EpsilonPers)
	}
}

func TestFigure5RiskFreeBeatsEqualOnDownside(t *testing.T) {
	res, err := RunFigure5(DefaultFigure5Params())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res)
	if len(res.RiskFree) != res.Steps || len(res.Equal) != res.Steps {
		t.Fatalf("series lengths %d/%d", len(res.RiskFree), len(res.Equal))
	}
	// Paper shape: "downside risk could be improved by using the risk free
	// portfolio" — lower variance and a better worst case.
	if res.StdRF >= res.StdEQ {
		t.Errorf("risk-free stddev %.3f >= equal-share %.3f", res.StdRF, res.StdEQ)
	}
	if res.WorstRF <= res.WorstEQ {
		t.Errorf("risk-free worst %.3f <= equal-share %.3f", res.WorstRF, res.WorstEQ)
	}
	if res.P5RF <= res.P5EQ {
		t.Errorf("risk-free p5 %.3f <= equal-share %.3f", res.P5RF, res.P5EQ)
	}
}

func TestFigure5Validation(t *testing.T) {
	p := DefaultFigure5Params()
	p.Hosts = 1
	if _, err := RunFigure5(p); err == nil {
		t.Error("single host accepted")
	}
	p = DefaultFigure5Params()
	p.TrainFrac = 1
	if _, err := RunFigure5(p); err == nil {
		t.Error("train fraction 1 accepted")
	}
}

func TestFigure6Windows(t *testing.T) {
	p := DefaultFigure6Params()
	// Shrink for test speed: 30 h with hour/day/"30h" windows.
	p.Load.Hours = 30
	p.Windows = map[string]int{"hour": 360, "day": 8640, "alltime": 10800}
	res, err := RunFigure6(p)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res)
	if len(res.Windows) != 3 {
		t.Fatalf("windows = %d", len(res.Windows))
	}
	for _, w := range res.Windows {
		var sum float64
		for _, bk := range w.Buckets {
			sum += bk.Proportion
		}
		if sum < 0.99 || sum > 1.01 {
			t.Errorf("window %s proportions sum to %v", w.Name, sum)
		}
		if w.Moments.Count == 0 {
			t.Errorf("window %s saw no data", w.Name)
		}
	}
	// Windows are ordered smallest first (hour, day, alltime).
	if res.Windows[0].Name != "hour" || res.Windows[2].Name != "alltime" {
		t.Errorf("window order: %v, %v, %v", res.Windows[0].Name, res.Windows[1].Name, res.Windows[2].Name)
	}
}

func TestFigure7Approximation(t *testing.T) {
	res, err := RunFigure7(DefaultFigure7Params())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res)
	if len(res.Reports) != 3 {
		t.Fatalf("reports = %d", len(res.Reports))
	}
	for _, rep := range res.Reports {
		// Paper shape: "in general the approximations followed the actual
		// distributions closely".
		if rep.TotalVariation > 0.25 {
			t.Errorf("%s: TV distance %.3f too large", rep.Name, rep.TotalVariation)
		}
		if rep.ApproxMean == 0 || rep.ActualMean == 0 {
			t.Errorf("%s: degenerate means", rep.Name)
		}
		diff := rep.ApproxMean - rep.ActualMean
		if diff < 0 {
			diff = -diff
		}
		if diff > 0.15*rep.ActualMean+0.05 {
			t.Errorf("%s: approx mean %.3f vs actual %.3f", rep.Name, rep.ApproxMean, rep.ActualMean)
		}
	}
}

func TestFigure7Validation(t *testing.T) {
	if _, err := RunFigure7(Figure7Params{Window: 5, Slots: 10}); err == nil {
		t.Error("tiny window accepted")
	}
}

func TestFigure4Validation(t *testing.T) {
	p := DefaultFigure4Params()
	p.Order = 0
	if _, err := RunFigure4(p); err == nil {
		t.Error("order 0 accepted")
	}
}

func TestFigure3Validation(t *testing.T) {
	p := DefaultFigure3Params()
	p.Guarantees = nil
	if _, err := RunFigure3(p); err == nil {
		t.Error("no guarantees accepted")
	}
}

func TestLoadIntensityModulation(t *testing.T) {
	p := DefaultLoadParams()
	p.Hours = 5
	quiet := 0
	p.Intensity = func(at time.Duration) float64 {
		if at > 2*time.Hour {
			quiet++
			return 0.001
		}
		return 1
	}
	res, err := RunLoad(p)
	if err != nil {
		t.Fatal(err)
	}
	if quiet == 0 {
		t.Error("intensity function never consulted in quiet phase")
	}
	if res.JobsSent == 0 {
		t.Error("no jobs in busy phase")
	}
}
