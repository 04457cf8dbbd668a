// Priceprediction: the paper's §4 prediction suite on a live market trace.
//
// The example runs a bursty grid-market simulation for 20 hours, records the
// spot-price history of the busiest host, and then exercises each prediction
// tool a user would consult before funding a job:
//
//   - the stateless normal model: "how much capacity do I get with 90%
//     certainty for X credits/day, and how much should I spend for 1.6 GHz?"
//   - the budget recommendation and deadline probability (§4.2),
//   - the AR(6) model with smoothing-spline pre-pass vs the persistence
//     benchmark (§4.3, Figure 4),
//   - the moving-window moments and slot-table distribution (§4.5).
//
// Run with:  go run ./examples/priceprediction
package main

import (
	"fmt"
	"log"
	"time"

	"tycoongrid/internal/experiment"
	"tycoongrid/internal/predict"
	"tycoongrid/internal/stats"
)

func main() {
	// --- Record a market trace ------------------------------------------
	load := experiment.DefaultLoadParams()
	load.Hours = 20
	load.BatchPeriod = 4 * time.Hour
	load.BatchJobs = 3
	res, err := experiment.RunLoad(load)
	if err != nil {
		log.Fatal(err)
	}
	xs := res.Prices(res.BusiestID)
	fmt.Printf("recorded %d price snapshots on %s (%d jobs submitted)\n",
		len(xs), res.BusiestID, res.JobsSent)

	host, err := res.World.Cluster.Host(res.BusiestID)
	if err != nil {
		log.Fatal(err)
	}
	d := stats.DescribeSample(xs)
	hp := predict.HostPrice{
		HostID:     res.BusiestID,
		Preference: host.Market.CapacityMHz(),
		Mu:         d.Mean,
		Sigma:      d.StdDev,
	}
	fmt.Printf("price: mean %.6f, sd %.6f credits/s (host %.0f MHz)\n\n",
		hp.Mu, hp.Sigma, hp.Preference)

	// --- Normal model (§4.2) ---------------------------------------------
	fmt.Println("== stateless normal-distribution prediction ==")
	for _, budgetPerDay := range []float64{10, 22, 60} {
		rate := budgetPerDay / 86400
		for _, p := range []float64{0.80, 0.90, 0.99} {
			c, err := predict.GuaranteedCapacityMHz(hp, rate, p)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %3.0f credits/day at %2.0f%% guarantee -> %6.0f MHz\n",
				budgetPerDay, p*100, c)
		}
	}
	target := 1600.0
	if target < hp.Preference {
		x, err := predict.RecommendBudget(hp, target, 0.90)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  to hold %.1f GHz with 90%% certainty spend %.1f credits/day\n",
			target/1000, x*86400)
	}
	pDeadline, err := predict.DeadlineProbability(30.0/86400, 1000, []predict.HostPrice{hp})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  a 30 credits/day job needing 1000 MHz makes its deadline with p ~= %.2f\n\n", pDeadline)

	// --- AR model (§4.3) --------------------------------------------------
	fmt.Println("== AR(6) forecast with smoothing vs persistence ==")
	// Work on 10-minute buckets; forecast one hour (6 steps) ahead.
	bucket := 60
	agg := make([]float64, 0, len(xs)/bucket)
	for i := 0; i+bucket <= len(xs); i += bucket {
		var s float64
		for _, v := range xs[i : i+bucket] {
			s += v
		}
		agg = append(agg, s/float64(bucket))
	}
	fit := len(agg) / 2
	ar := predict.NewWindowedSmoothedForecaster(6, 10, 0)
	predAR, measAR, err := predict.HorizonErrors(ar, agg, fit, 6, 3)
	if err != nil {
		log.Fatal(err)
	}
	epsAR, err := predict.PredictionError(predAR, measAR)
	if err != nil {
		log.Fatal(err)
	}
	predP, measP, err := predict.HorizonErrors(predict.Persistence{}, agg, fit, 6, 3)
	if err != nil {
		log.Fatal(err)
	}
	epsP, err := predict.PredictionError(predP, measP)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  AR(6)+smoothing epsilon: %.2f%%\n", epsAR*100)
	fmt.Printf("  persistence epsilon:     %.2f%%\n\n", epsP*100)

	// --- Moving windows (§4.5) --------------------------------------------
	fmt.Println("== moving-window statistics (last hour vs whole trace) ==")
	mm, err := stats.NewMovingMoments(360)
	if err != nil {
		log.Fatal(err)
	}
	wd, err := stats.NewWindowDistribution(360, 8)
	if err != nil {
		log.Fatal(err)
	}
	for _, x := range xs {
		mm.Observe(x)
		wd.Observe(x)
	}
	snap := mm.Snapshot()
	fmt.Printf("  hour window: mean %.6f sd %.6f skew %+.2f kurtosis %+.2f\n",
		snap.Mean, snap.StdDev, snap.Skewness, snap.Kurtosis)
	fmt.Printf("  whole trace: mean %.6f sd %.6f skew %+.2f kurtosis %+.2f\n",
		d.Mean, d.StdDev, d.Skewness, d.Kurtosis)
	fmt.Println("  hour-window price brackets:")
	for _, b := range wd.Buckets() {
		fmt.Printf("    [%.6f, %.6f): %5.1f%%\n", b.Lo, b.Hi, b.Proportion*100)
	}
}
