// Portfolio: Markowitz risk management across hosts (paper §4.4, Figure 5).
//
// Host "return" is performance per money unit — CPU cycles per second
// delivered per credit per second spent, i.e. host capacity divided by the
// spot price. The example records each host's return series from a live
// market simulation, estimates means and covariances, and then:
//
//   - computes the risk-free (minimum variance) portfolio,
//   - traces the efficient frontier,
//   - compares risk-free vs equal-share funding on fresh data, showing the
//     improved downside risk the paper reports.
//
// Two practical notes the paper also raises (§4.4): raw covariance estimates
// from short windows are noisy, so we apply diagonal loading before
// inverting; and negative weights (shorting a host) are meaningless for
// funding decisions, so the deployed portfolio is the long-only projection.
//
// Run with:  go run ./examples/portfolio
package main

import (
	"fmt"
	"log"
	"math"

	"tycoongrid/internal/experiment"
	"tycoongrid/internal/portfolio"
)

func main() {
	// --- Record per-host return series from a market simulation ----------
	load := experiment.DefaultLoadParams()
	load.Hours = 16
	load.World.Hosts = 8
	res, err := experiment.RunLoad(load)
	if err != nil {
		log.Fatal(err)
	}

	hosts := res.World.Cluster.HostIDs()
	var returns [][]float64
	minLen := math.MaxInt
	for _, h := range hosts {
		host, err := res.World.Cluster.Host(h)
		if err != nil {
			log.Fatal(err)
		}
		capacity := host.Market.CapacityMHz()
		vals := res.Prices(h)
		rets := make([]float64, len(vals))
		for i, price := range vals {
			// GHz-seconds delivered per credit spent.
			rets[i] = capacity / math.Max(price, 1e-9) / 1e6
		}
		returns = append(returns, rets)
		if len(rets) < minLen {
			minLen = len(rets)
		}
	}
	// Align lengths and aggregate to 5-minute buckets to de-noise.
	const bucket = 30
	series := make([][]float64, len(returns))
	for i, rets := range returns {
		rets = rets[:minLen]
		agg := make([]float64, 0, minLen/bucket)
		for j := 0; j+bucket <= len(rets); j += bucket {
			var s float64
			for _, v := range rets[j : j+bucket] {
				s += v
			}
			agg = append(agg, s/bucket)
		}
		series[i] = agg
	}
	// Train on the first half.
	half := len(series[0]) / 2
	train := make([][]float64, len(series))
	for i := range series {
		train[i] = series[i][:half]
	}
	means := portfolio.MeansFromSeries(train)
	assets := make([]portfolio.Asset, len(hosts))
	for i, h := range hosts {
		assets[i] = portfolio.Asset{ID: h, Return: means[i]}
	}
	cov, err := portfolio.CovarianceFromSeries(train)
	if err != nil {
		log.Fatal(err)
	}
	// Diagonal loading: short-window covariances are noisy and nearly
	// singular; add 25% of the average variance to the diagonal.
	var avgVar float64
	for i := 0; i < cov.Rows(); i++ {
		avgVar += cov.At(i, i)
	}
	avgVar /= float64(cov.Rows())
	for i := 0; i < cov.Rows(); i++ {
		cov.Set(i, i, cov.At(i, i)+0.25*avgVar)
	}

	// --- Risk-free portfolio ----------------------------------------------
	rf, err := portfolio.MinimumVariance(assets, cov)
	if err != nil {
		log.Fatal(err)
	}
	rf.Weights = longOnly(rf.Weights)
	eq, err := portfolio.EqualShares(assets)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== risk-free (minimum variance, long-only) portfolio ==")
	for i, a := range assets {
		fmt.Printf("  %-5s mean return %8.2f GHz·s/credit   weight %6.3f\n",
			a.ID, a.Return, rf.Weights[i])
	}
	rfRisk, _ := rf.Risk(cov)
	eqRisk, _ := eq.Risk(cov)
	fmt.Printf("portfolio return %.2f risk %.3f (equal-share risk %.3f)\n\n",
		rf.Return(), rfRisk, eqRisk)

	// --- Efficient frontier -----------------------------------------------
	var maxMean float64
	for _, a := range assets {
		if a.Return > maxMean {
			maxMean = a.Return
		}
	}
	pts, err := portfolio.Frontier(assets, cov, maxMean, 8)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== efficient frontier (return vs risk) ==")
	for _, pt := range pts {
		fmt.Printf("  return %8.2f  risk %8.3f\n", pt.Return, pt.Risk)
	}

	// --- Out-of-sample comparison -----------------------------------------
	fmt.Println("\n== out-of-sample aggregate performance (GHz·s per credit) ==")
	perf := func(w []float64, k int) float64 {
		var s float64
		for i := range w {
			s += w[i] * series[i][k]
		}
		return s
	}
	worstRF, worstEQ := math.Inf(1), math.Inf(1)
	var sumRF, sumEQ float64
	n := 0
	for k := half; k < len(series[0]); k++ {
		a, b := perf(rf.Weights, k), perf(eq.Weights, k)
		sumRF += a
		sumEQ += b
		if a < worstRF {
			worstRF = a
		}
		if b < worstEQ {
			worstEQ = b
		}
		n++
	}
	fmt.Printf("  risk-free:   mean %8.2f  worst %8.2f\n", sumRF/float64(n), worstRF)
	fmt.Printf("  equal-share: mean %8.2f  worst %8.2f\n", sumEQ/float64(n), worstEQ)
}

// longOnly clamps negative weights to zero and renormalizes — hosts cannot
// be funded negatively.
func longOnly(w []float64) []float64 {
	out := make([]float64, len(w))
	var sum float64
	for i, v := range w {
		if v > 0 {
			out[i] = v
			sum += v
		}
	}
	if sum == 0 {
		for i := range out {
			out[i] = 1 / float64(len(out))
		}
		return out
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}
