package experiment

import (
	"errors"
	"fmt"
	"math"
	"time"

	"tycoongrid/internal/bank"
)

// LoadParams drives the background-load scenario that generates realistic
// spot-price traces: grid jobs arrive as a Poisson process with lognormal
// budgets and varying shapes, exactly the bursty bag-of-tasks traffic that
// produces the "sharp price drops when batch jobs completed" the paper's
// §5.4 smoothing pre-pass exists for.
type LoadParams struct {
	World WorldConfig
	// Hours of simulated market activity.
	Hours float64
	// MeanInterarrival between job submissions.
	MeanInterarrival time.Duration
	// BudgetMedian and BudgetSigma shape the lognormal budget draw (credits).
	BudgetMedian float64
	BudgetSigma  float64
	// Intensity, if non-nil, scales the arrival rate at a given sim time
	// (1 = nominal); use it for diurnal patterns.
	Intensity func(at time.Duration) float64
	// BatchPeriod, when positive, adds the paper's §5 structure on top of
	// the Poisson background: every period a wave of BatchJobs competing
	// batch submissions arrives (the nightly-proteome-scan pattern whose
	// completion causes the sharp price drops of §5.4). Prices then carry
	// learnable quasi-periodic structure.
	BatchPeriod time.Duration
	BatchJobs   int
}

// DefaultLoadParams returns a medium-load market on a modest cluster.
func DefaultLoadParams() LoadParams {
	w := PaperWorld()
	w.Hosts = 10
	w.Users = 8
	return LoadParams{
		World:            w,
		Hours:            40,
		MeanInterarrival: 25 * time.Minute,
		BudgetMedian:     40,
		BudgetSigma:      0.8,
	}
}

// LoadResult is the recorded market activity.
type LoadResult struct {
	World     *World
	JobsSent  int
	JobsAged  int // submissions rejected (e.g. funds exhausted)
	BusiestID string
	trace     *runPrices
}

// Prices returns host's spot price at every tick of the run, oldest first
// (nil for a host the world does not have).
func (r *LoadResult) Prices(host string) []float64 {
	if ring := r.trace.rings[host]; ring != nil {
		return ring.Prices()
	}
	return nil
}

// RunLoad executes the scenario and returns the recorded traces.
func RunLoad(p LoadParams) (*LoadResult, error) {
	if p.Hours <= 0 {
		return nil, errors.New("experiment: load hours must be positive")
	}
	if p.MeanInterarrival <= 0 {
		return nil, errors.New("experiment: bad interarrival")
	}
	w, err := NewWorld(p.World)
	if err != nil {
		return nil, err
	}
	horizon := time.Duration(p.Hours * float64(time.Hour))
	trace, err := w.recordPrices(horizon)
	if err != nil {
		return nil, err
	}
	res := &LoadResult{World: w, trace: trace}
	src := w.Src.Split()

	var schedule func(at time.Duration)
	schedule = func(at time.Duration) {
		if at > horizon {
			return
		}
		if _, err := w.Engine.At(w.Engine.Now().Add(at), func() {
			// Submit one random job.
			u := w.Users[src.Intn(len(w.Users))]
			budget, err := bank.FromCredits(src.LogNormal(math.Log(p.BudgetMedian), p.BudgetSigma))
			if err == nil && budget > 0 {
				subJobs := 3 + src.Intn(15)
				chunkMin := src.Uniform(8, 45)
				maxNodes := 2 + src.Intn(8)
				deadline := time.Duration(src.Uniform(1.5, 8) * float64(time.Hour))
				if _, err := w.SubmitApp(u, budget, deadline, subJobs, chunkMin, maxNodes); err != nil {
					res.JobsAged++
				} else {
					res.JobsSent++
				}
			}
			// Next arrival.
			gap := src.Exponential(1 / p.MeanInterarrival.Seconds())
			if p.Intensity != nil {
				f := p.Intensity(w.Engine.Elapsed())
				if f > 0.01 {
					gap /= f
				} else {
					gap *= 100
				}
			}
			schedule(time.Duration(gap * float64(time.Second)))
		}); err != nil {
			return
		}
	}
	schedule(time.Duration(src.Exponential(1/p.MeanInterarrival.Seconds()) * float64(time.Second)))

	if p.BatchPeriod > 0 && p.BatchJobs > 0 {
		batchSrc := src.Split()
		var wave func()
		wave = func() {
			for i := 0; i < p.BatchJobs; i++ {
				u := w.Users[(i+batchSrc.Intn(2))%len(w.Users)]
				budget := bank.MustCredits(batchSrc.Uniform(80, 120))
				subJobs := 18 + batchSrc.Intn(5)
				chunkMin := batchSrc.Uniform(18, 24)
				deadline := p.BatchPeriod * 3 / 4
				if _, err := w.SubmitApp(u, budget, deadline, subJobs, chunkMin, 8); err != nil {
					res.JobsAged++
				} else {
					res.JobsSent++
				}
			}
			if w.Engine.Elapsed()+p.BatchPeriod <= horizon {
				if _, err := w.Engine.After(p.BatchPeriod, wave); err != nil {
					return
				}
			}
		}
		if _, err := w.Engine.After(10*time.Minute, wave); err != nil {
			return nil, err
		}
	}

	w.Engine.RunFor(horizon)
	if res.JobsSent == 0 {
		return nil, fmt.Errorf("experiment: load scenario submitted no jobs (%d failed)", res.JobsAged)
	}

	// The trace is read from here on: idle hosts hand it the samples their
	// sleeping markets still owe.
	w.Cluster.Sync()
	if err := trace.check(); err != nil {
		return nil, err
	}

	res.BusiestID = busiestHost(w.Cluster.HostIDs(), res.Prices)
	return res, nil
}

// busiestHost returns the host of highest mean recorded price, for the
// single-host analyses: of equal means the first of ids (sorted, from
// Cluster.HostIDs), and never a host without samples.
func busiestHost(ids []string, prices func(host string) []float64) string {
	best := ""
	bestMean := -1.0
	for _, h := range ids {
		vs := prices(h)
		if len(vs) == 0 {
			continue
		}
		var sum float64
		for _, v := range vs {
			sum += v
		}
		if m := sum / float64(len(vs)); m > bestMean {
			bestMean = m
			best = h
		}
	}
	return best
}
