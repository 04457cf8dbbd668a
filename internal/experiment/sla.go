package experiment

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"tycoongrid/internal/predict"
	"tycoongrid/internal/sla"
	"tycoongrid/internal/stats"
)

// SLAParams configures the SLA calibration experiment — the paper's §7
// future-work claim made concrete: reservation mechanisms (SLAs) built on
// the prediction infrastructure, with the empirical-distribution extension
// ("handle arbitrary distributions") compared against the normal model.
type SLAParams struct {
	Load         LoadParams
	CapacityFrac float64   // contracted share of the host, e.g. 0.25
	Confidences  []float64 // quoted confidence levels
}

// DefaultSLAParams contracts a quarter of the busiest host at three
// confidence levels.
func DefaultSLAParams() SLAParams {
	load := DefaultLoadParams()
	load.Hours = 30
	load.BatchPeriod = 4 * time.Hour
	load.BatchJobs = 3
	return SLAParams{
		Load:         load,
		CapacityFrac: 0.25,
		Confidences:  []float64{0.80, 0.90, 0.95},
	}
}

// SLARow is one confidence level's out-of-sample outcome under both pricing
// models.
type SLARow struct {
	Confidence         float64
	TargetViolation    float64 // 1 - p
	NormalViolation    float64
	EmpiricalViolation float64
	NormalPremium      float64 // credits for the evaluation window
	EmpiricalPremium   float64
}

// SLAResult is the calibration table.
type SLAResult struct {
	HostID string
	Rows   []SLARow
}

// RunSLACalibration records a market trace, fits both price models on a
// window, quotes SLAs, and replays that window as the spot market to measure
// realized violation rates. The replay is in-sample deliberately: it isolates
// how faithfully each model represents the window's actual price
// *distribution* (the paper's §7 "handle arbitrary distributions" concern) —
// the empirical model calibrates to 1-p by construction, while the normal
// model drifts whenever the window is skewed. Regime shifts between windows
// are a separate risk the paper assigns to window selection ("crucial ...
// to pick a time window" §7).
func RunSLACalibration(p SLAParams) (*SLAResult, error) {
	if p.CapacityFrac <= 0 || p.CapacityFrac >= 1 {
		return nil, errors.New("experiment: capacity fraction outside (0,1)")
	}
	if len(p.Confidences) == 0 {
		return nil, errors.New("experiment: no confidence levels")
	}
	load, err := RunLoad(p.Load)
	if err != nil {
		return nil, err
	}
	xs := load.Prices(load.BusiestID)
	if len(xs) < 1000 {
		return nil, errors.New("experiment: trace too short")
	}
	fit, eval := xs, xs

	host, err := load.World.Cluster.Host(load.BusiestID)
	if err != nil {
		return nil, err
	}
	hostMHz := host.Market.CapacityMHz()
	capacity := hostMHz * p.CapacityFrac

	d := stats.DescribeSample(fit)
	normal := predict.HostPrice{HostID: load.BusiestID, Preference: hostMHz, Mu: d.Mean, Sigma: d.StdDev}
	empirical, err := predict.NewEmpiricalPriceFromSample(load.BusiestID, hostMHz, fit, 64)
	if err != nil {
		return nil, err
	}
	window := time.Duration(len(eval)) * load.World.Cluster.Interval()

	res := &SLAResult{HostID: load.BusiestID}
	for _, conf := range p.Confidences {
		row := SLARow{Confidence: conf, TargetViolation: 1 - conf}
		for _, m := range []struct {
			model     predict.QuantileModel
			violation *float64
			premium   *float64
		}{
			{normal, &row.NormalViolation, &row.NormalPremium},
			{empirical, &row.EmpiricalViolation, &row.EmpiricalPremium},
		} {
			q, err := sla.PriceAgreement(m.model, load.BusiestID, hostMHz, capacity, window, conf, 0, 1)
			if err != nil {
				return nil, err
			}
			*m.premium = q.Premium.Credits()
			a, err := sla.Accept(q, "customer", load.World.Engine.Now())
			if err != nil {
				return nil, err
			}
			for _, spot := range eval {
				delivered := hostMHz * q.SpendRate / (q.SpendRate + spot)
				if err := a.Observe(delivered, 10*time.Second); err != nil {
					return nil, err
				}
			}
			*m.violation = a.ViolationRate()
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// String renders the calibration table.
func (r *SLAResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "SLA calibration on host %s (model vs window distribution)\n", r.HostID)
	fmt.Fprintf(&b, "%-6s %8s %14s %14s %12s %12s\n",
		"p", "target", "normal-viol", "empir-viol", "normal-prem", "empir-prem")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-6.2f %8.3f %14.3f %14.3f %12.2f %12.2f\n",
			row.Confidence, row.TargetViolation,
			row.NormalViolation, row.EmpiricalViolation,
			row.NormalPremium, row.EmpiricalPremium)
	}
	return b.String()
}
