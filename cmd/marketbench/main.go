// Command marketbench regenerates every table and figure of the paper's
// evaluation section on the simulated grid market. Each experiment prints
// rows shaped like the paper's artifact; see EXPERIMENTS.md for the
// paper-vs-measured record.
//
// Usage:
//
//	marketbench -run all            # everything (default)
//	marketbench -run table1         # Table 1: equal funding
//	marketbench -run table2         # Table 2: two-point funding
//	marketbench -run figure3        # normal-distribution prediction
//	marketbench -run figure4        # AR(6) forecast vs persistence
//	marketbench -run figure5        # risk-free vs equal-share portfolio
//	marketbench -run figure6        # hour/day/week price distributions
//	marketbench -run figure7        # window approximation accuracy
//	marketbench -run strategies     # matchmaking strategies, paired seeds
//	marketbench -run mechanisms     # clearing rules, paired seeds
//	marketbench -run sla            # SLA terms and valuations
//	marketbench -run ablation-cap   # also -scheduler, -smoothing, -interval
//	marketbench -seed 2006          # alternate RNG seed
//	marketbench -reps 8 -parallel 4 # 8 seeded replications on 4 workers
//
// Performance is measured by the bench package (bench/README.md), not here.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strings"
	"time"

	"tycoongrid/internal/tracing"
)

func main() {
	names := []string{
		"table1", "table2", "figure3", "figure4", "figure5", "figure6", "figure7",
		"strategies", "mechanisms",
		"ablation-scheduler", "ablation-cap", "ablation-smoothing", "ablation-interval",
		"sla",
	}
	valid := "all|" + strings.Join(names, "|")
	run := flag.String("run", "all", "experiment: "+valid)
	experimentAlias := flag.String("experiment", "", "alias for -run")
	seed := flag.Int64("seed", 2006, "RNG seed for all experiments")
	csvDir := flag.String("csv", "", "directory to write plot-ready CSV files (optional)")
	traceRatio := flag.Float64("trace", 1, "fraction of root traces recorded, 0..1")
	reps := flag.Int("reps", 1, "independent replications per experiment (1 = single run)")
	parallel := flag.Int("parallel", 0, "replication workers; 0 = GOMAXPROCS (output is identical for any value)")
	strat := flag.String("strategy", "",
		"strategies experiment: comma-separated matchmaking strategies to compare (default all registered)")
	mechs := flag.String("mechanism", "",
		"mechanisms experiment: comma-separated clearing rules to compare (default all registered)")
	horizon := flag.Duration("horizon", 0,
		"strategies experiment: forecast horizon (0 = experiment default)")
	flag.Parse()
	if *experimentAlias != "" {
		run = experimentAlias
	}
	tracing.InitSlog("marketbench", os.Stderr, slog.LevelWarn)
	tracing.Default().SetSampleRatio(*traceRatio)

	if *run != "all" {
		found := false
		for _, n := range names {
			if n == *run {
				names = []string{n}
				found = true
				break
			}
		}
		if !found {
			slog.Error("marketbench: unknown experiment", "run", *run, "valid", valid)
			os.Exit(1)
		}
	}
	for _, name := range names {
		fmt.Printf("=== %s ===\n", strings.ToUpper(name))
		start := time.Now()
		span, _ := tracing.Default().StartSpan(context.Background(), "experiment."+name)
		release := tracing.Default().PushScope(span)
		var out string
		var err error
		if *reps > 1 {
			out, err = runReplicated(name, *seed, *csvDir, *reps, *parallel, *strat, *horizon, *mechs)
		} else {
			out, err = runExperiment(name, *seed, *csvDir, *strat, *horizon, *mechs)
		}
		release()
		if err != nil {
			span.EndErr(err)
			fmt.Fprintf(os.Stderr, "marketbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		span.End()
		fmt.Print(out)
		if *reps > 1 {
			// Keep wall-clock noise off stdout so replicated output is
			// byte-for-byte comparable across runs and worker counts.
			fmt.Println()
			fmt.Fprintf(os.Stderr, "(%s in %.1fs)\n", name, time.Since(start).Seconds())
		} else {
			fmt.Printf("(%s in %.1fs)\n\n", name, time.Since(start).Seconds())
		}
	}

	// Every experiment above drove the instrumented market internals
	// (auction clears, bank moves, grid ticks), so the final telemetry of
	// the run is a free by-product: the metrics snapshot plus the tsdb
	// series and SLO statuses the end-of-run capture derives from it. When
	// replicating, concurrent worlds interleave writes into the process-wide
	// registry and values depend on completion order, so the replicated
	// output carries only the telemetry catalogue — sorted names and
	// statuses, byte-identical across reruns and worker counts.
	fmt.Print(telemetryFinish(*reps > 1))

	// Each experiment ran under its own root span; the slowest one is the
	// optimization target, so dump its tree as the run's parting diagnostic.
	// Trace IDs and durations are run-dependent, so this too stays out of
	// the replicated (deterministic) output.
	if *reps <= 1 {
		if sum, ok := tracing.Default().Slowest(); ok {
			fmt.Println("=== SLOWEST TRACE ===")
			fmt.Print(tracing.RenderTree(tracing.Default().Spans(sum.TraceID)))
		}
	}
}
