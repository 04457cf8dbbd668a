// Reservations: the paper's §7 future work, running — Service Level
// Agreements and swing options built on the §4 prediction infrastructure.
//
// The example records a spot-price trace from a live market simulation and
// then acts as a resource broker selling reservations against it:
//
//  1. It quotes capacity SLAs at several confidence levels, priced from
//     the normal model *and* from the empirical price distribution (the
//     paper's "handle arbitrary distributions" extension), and replays the
//     trace to measure realized violation rates against the 1-p target.
//  2. It prices a swing option (the right to buy CPU at a strike price for
//     up to N intervals) with the Bachelier formula and simulates a rational
//     holder exercising against the spot market.
//
// Run with:  go run ./examples/reservations
package main

import (
	"fmt"
	"log"
	"time"

	"tycoongrid/internal/experiment"
	"tycoongrid/internal/predict"
	"tycoongrid/internal/sla"
	"tycoongrid/internal/stats"
)

func main() {
	// --- Record a trace ----------------------------------------------------
	load := experiment.DefaultLoadParams()
	load.Hours = 24
	load.BatchPeriod = 4 * time.Hour
	load.BatchJobs = 3
	res, err := experiment.RunLoad(load)
	if err != nil {
		log.Fatal(err)
	}
	host, err := res.World.Cluster.Host(res.BusiestID)
	if err != nil {
		log.Fatal(err)
	}
	hostMHz := host.Market.CapacityMHz()
	xs := res.Prices(res.BusiestID)
	d := stats.DescribeSample(xs)
	fmt.Printf("host %s: %.0f MHz, %d snapshots, price mean %.6f sd %.6f skew %+.2f\n\n",
		res.BusiestID, hostMHz, len(xs), d.Mean, d.StdDev, d.Skewness)

	normal := predict.HostPrice{HostID: res.BusiestID, Preference: hostMHz, Mu: d.Mean, Sigma: d.StdDev}
	empirical, err := predict.NewEmpiricalPriceFromSample(res.BusiestID, hostMHz, xs, 64)
	if err != nil {
		log.Fatal(err)
	}

	// --- Capacity SLAs ------------------------------------------------------
	fmt.Println("== capacity SLAs: 1400 MHz for the whole window, 20% margin ==")
	window := time.Duration(len(xs)) * 10 * time.Second
	fmt.Printf("%-10s %-9s %10s %12s %12s\n", "model", "p", "premium", "target-viol", "realized")
	for _, p := range []float64{0.80, 0.90, 0.95} {
		for _, m := range []struct {
			name  string
			model predict.QuantileModel
		}{{"normal", normal}, {"empirical", empirical}} {
			q, err := sla.PriceAgreement(m.model, res.BusiestID, hostMHz, 1400, window, p, 0.2, 1.0)
			if err != nil {
				log.Fatal(err)
			}
			a, err := sla.Accept(q, "alice", time.Now())
			if err != nil {
				log.Fatal(err)
			}
			for _, spot := range xs {
				delivered := hostMHz * q.SpendRate / (q.SpendRate + spot)
				if err := a.Observe(delivered, 10*time.Second); err != nil {
					log.Fatal(err)
				}
			}
			fmt.Printf("%-10s %-9.2f %10s %12.3f %12.3f\n",
				m.name, p, q.Premium, 1-p, a.ViolationRate())
		}
	}

	// --- Swing option -------------------------------------------------------
	fmt.Println("\n== swing option: right to buy at the median price, 60 of 360 intervals ==")
	strike, err := normal.QuantilePrice(0.5)
	if err != nil {
		log.Fatal(err)
	}
	opt, err := sla.PriceSwing(res.BusiestID, d.Mean, d.StdDev, strike, 60, 360, 10*time.Second, 0.1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("strike %.6f credits/s, premium %s credits\n", strike, opt.Premium)
	// Rational holder walks the last 360 snapshots of the trace.
	tail := xs[len(xs)-360:]
	exercised := 0
	for _, spot := range tail {
		if opt.ShouldExercise(spot) {
			if _, err := opt.Exercise(spot); err != nil {
				log.Fatal(err)
			}
			exercised++
		}
	}
	fmt.Printf("exercised %d rights (%d unused), payoff %.4f credits vs premium %s\n",
		exercised, opt.Remaining(), opt.Payoff(), opt.Premium)
	if opt.Payoff() > opt.Premium.Credits() {
		fmt.Println("the option paid off: the market spiked above the strike often enough")
	} else {
		fmt.Println("the option expired mostly unused: the market stayed below the strike")
	}
}
