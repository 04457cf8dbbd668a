package experiment

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"

	"tycoongrid/internal/mathx"
	"tycoongrid/internal/rng"
	"tycoongrid/internal/tracing"
)

// This file is the replication runner: it executes N independently-seeded
// copies of one experiment across a worker pool and merges the per-replication
// metric vectors into mean / standard deviation / 95% confidence intervals.
// Three properties make the output trustworthy:
//
//   - Seeds are derived statelessly: replication i always runs with
//     rng.DeriveSeed(base, i) no matter which worker picks it up, so the
//     schedule cannot leak into the results.
//   - Every replication builds its own World (engine, cluster, bank, agent)
//     and its own quiet tracer; concurrent worlds share nothing mutable.
//   - Reduction happens in replication-index order after all workers join,
//     so the aggregate (and its CSV rendering) is byte-identical whether it
//     was computed with 1 worker or 16.

// ReplicationConfig controls the worker pool.
type ReplicationConfig struct {
	// Reps is the number of independent replications.
	Reps int
	// Parallel is the worker count; <= 0 means GOMAXPROCS. It never exceeds
	// Reps. The aggregate is identical for every value of Parallel.
	Parallel int
	// BaseSeed is the seed the per-replication seeds are derived from.
	BaseSeed int64
}

// Aggregate is the merged outcome of a replicated experiment.
type Aggregate struct {
	Name  string
	Cols  []string
	Seeds []int64 // Seeds[i] drove replication i
	// PerRep[i][c] is replication i's value for column c.
	PerRep [][]float64
	// Mean, StdDev and CI95 hold per-column sample statistics; CI95 is the
	// half-width of the Student-t 95% confidence interval on the mean.
	Mean   []float64
	StdDev []float64
	CI95   []float64
}

// Replicate runs e once per replication across a pool of workers — the same
// closure a single run calls, under the derived seed and a quiet tracer — and
// reduces the results' metrics in seed order.
func Replicate(e Experiment, cfg ReplicationConfig) (*Aggregate, error) {
	if e.Run == nil {
		return nil, errors.New("experiment: experiment has no Run")
	}
	if len(e.Cols) == 0 {
		return nil, fmt.Errorf("experiment: %q has no columns to replicate", e.Name)
	}
	if cfg.Reps <= 0 {
		return nil, fmt.Errorf("experiment: need at least one replication, got %d", cfg.Reps)
	}
	workers := cfg.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > cfg.Reps {
		workers = cfg.Reps
	}

	seeds := make([]int64, cfg.Reps)
	for i := range seeds {
		seeds[i] = rng.DeriveSeed(cfg.BaseSeed, uint64(i))
	}
	results := make([][]float64, cfg.Reps)
	errs := make([]error, cfg.Reps)
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				res, err := e.Run(seeds[i], quietTracer())
				if err != nil {
					errs[i] = err
					continue
				}
				results[i] = res.Metrics()
			}
		}()
	}
	for i := 0; i < cfg.Reps; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	// Seed-ordered reduction: the first error by index wins, and the column
	// statistics fold replications in index order.
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("experiment: replication %d (seed %d): %w", i, seeds[i], err)
		}
	}
	nc := len(e.Cols)
	for i, row := range results {
		if len(row) != nc {
			return nil, fmt.Errorf("experiment: replication %d returned %d values for %d columns", i, len(row), nc)
		}
	}
	agg := &Aggregate{
		Name: e.Name, Cols: e.Cols, Seeds: seeds, PerRep: results,
		Mean: make([]float64, nc), StdDev: make([]float64, nc), CI95: make([]float64, nc),
	}
	for c := 0; c < nc; c++ {
		var w mathx.Welford
		for _, row := range results {
			w.Add(row[c])
		}
		agg.Mean[c] = w.Mean()
		if n := int(w.N()); n >= 2 {
			sd := math.Sqrt(w.SampleVariance())
			agg.StdDev[c] = sd
			agg.CI95[c] = mathx.StudentTQuantile(0.975, n-1) * sd / math.Sqrt(float64(n))
		}
	}
	return agg, nil
}

// String renders the aggregate as an aligned metric table.
func (a *Aggregate) String() string {
	out := fmt.Sprintf("%d replications\n%-24s %14s %14s %14s\n",
		len(a.PerRep), "metric", "mean", "stddev", "ci95")
	for c, col := range a.Cols {
		out += fmt.Sprintf("%-24s %14.4f %14.4f %14.4f\n",
			col, a.Mean[c], a.StdDev[c], a.CI95[c])
	}
	return out
}

// quietTracer builds the private tracer a replication world runs under:
// unsampled, because replications need numbers, not span trees, and its own,
// so concurrent worlds' job spans never enter the process-wide ring.
func quietTracer() *tracing.Tracer {
	t := tracing.New(tracing.WithCapacity(64))
	t.SetSampleRatio(0)
	return t
}
