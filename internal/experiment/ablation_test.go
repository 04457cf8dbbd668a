package experiment

import (
	"testing"
	"time"
)

func TestAblationSchedulerMarketDifferentiatesBatchDoesNot(t *testing.T) {
	p := Table2Params()
	p.SubJobs = 30
	res, err := RunAblationScheduler(p)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res)
	// Market: money buys latency.
	if res.Market.HighLatency >= res.Market.LowLatency {
		t.Errorf("market did not differentiate: high %v, low %v",
			res.Market.HighLatency, res.Market.LowLatency)
	}
	// Batch: funding is invisible; the high funders arrive *later* and so do
	// no better than the low funders — admin FIFO inverts the priority.
	if res.Batch.HighLatency < res.Batch.LowLatency {
		t.Errorf("batch somehow rewarded late high-funders: high %v, low %v",
			res.Batch.HighLatency, res.Batch.LowLatency)
	}
	// Differentiation ratio: market's low/high latency ratio clearly above
	// the batch scheduler's.
	mRatio := res.Market.LowLatency / res.Market.HighLatency
	bRatio := res.Batch.LowLatency / res.Batch.HighLatency
	if mRatio <= bRatio {
		t.Errorf("market ratio %.2f not above batch ratio %.2f", mRatio, bRatio)
	}
}

func TestAblationSchedulerValidation(t *testing.T) {
	p := Table2Params()
	p.Budgets = p.Budgets[:1]
	if _, err := RunAblationScheduler(p); err == nil {
		t.Error("budget mismatch accepted")
	}
}

func TestAblationCapUtilityRankingWins(t *testing.T) {
	res, err := RunAblationCap()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res)
	// Ranking by utility contribution keeps the idle (cheap) hosts and
	// achieves strictly higher utility than ranking by raw bid size, which
	// keeps the contested (expensive) hosts.
	if res.UtilityRanked <= res.BidRanked {
		t.Errorf("utility ranking %v not better than bid ranking %v",
			res.UtilityRanked, res.BidRanked)
	}
	// The kept sets differ: utility keeps h00-h04 (idle), bid keeps h05-h09.
	if res.HostsUtility[0] != "h00" {
		t.Errorf("utility ranking kept %v", res.HostsUtility)
	}
	if res.HostsBid[0] != "h05" {
		t.Errorf("bid ranking kept %v", res.HostsBid)
	}
}

func TestAblationSmoothingHelps(t *testing.T) {
	// Run the ablation on the raw 10 s snapshots, where the sharp
	// batch-completion price drops live (pre-aggregating into 10-minute
	// buckets already smooths most of them away): the catalog's declaration.
	e, _ := Lookup("ablation-smoothing")
	out, err := e.Run(PaperWorld().Seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := out.(*AblationSmoothingResult)
	t.Logf("\n%s", res)
	if res.EpsilonSmoothed <= 0 || res.EpsilonRaw <= 0 {
		t.Fatal("degenerate epsilons")
	}
	// Paper §5.4: the raw AR model "had problems predicting future prices
	// due to sharp price drops"; with the coefficient-shrinkage stabilizer
	// also in place the pre-pass must at least not hurt (and both AR
	// variants must beat persistence).
	if res.EpsilonSmoothed > res.EpsilonRaw*1.001 {
		t.Errorf("smoothing hurt: %.4f vs raw %.4f", res.EpsilonSmoothed, res.EpsilonRaw)
	}
	if res.EpsilonSmoothed >= res.EpsilonPers {
		t.Errorf("smoothed AR %.4f not better than persistence %.4f",
			res.EpsilonSmoothed, res.EpsilonPers)
	}
}

func TestAblationIntervalSweep(t *testing.T) {
	res, err := RunAblationInterval([]time.Duration{
		10 * time.Second, 60 * time.Second, 5 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, r := range res.Rows {
		// Differentiation survives at every interval: funded users do better.
		if r.HighLatency >= r.LowLatency {
			t.Errorf("interval %v: no differentiation (high %v, low %v)",
				r.Interval, r.HighLatency, r.LowLatency)
		}
	}
	if _, err := RunAblationInterval(nil); err == nil {
		t.Error("empty sweep accepted")
	}
}

func TestResampleHelper(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7}
	out := resample(xs, 2)
	want := []float64{1.5, 3.5, 5.5}
	if len(out) != 3 {
		t.Fatalf("out = %v", out)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Errorf("out[%d] = %v", i, out[i])
		}
	}
	if got := resample(xs, 1); len(got) != len(xs) {
		t.Error("n=1 should be identity")
	}
}
