// Command marketbench regenerates every table and figure of the paper's
// evaluation section on the simulated grid market. Each experiment prints
// rows shaped like the paper's artifact; see EXPERIMENTS.md for the
// paper-vs-measured record.
//
// Usage:
//
//	marketbench -h                  # the experiments, by name and title, and the flags
//	marketbench -run all            # everything (default)
//	marketbench -run table1         # one experiment of experiment.Catalog()
//	marketbench -seed 2006          # alternate RNG seed
//	marketbench -reps 8 -parallel 4 # 8 seeded replications on 4 workers
//
// Performance is measured by the bench package (bench/README.md), not here.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"
	"time"

	"tycoongrid/internal/experiment"
	"tycoongrid/internal/tracing"
)

// errBadFlags is run's error for a command line that did not parse; the flag
// set has already written the reason and the usage to stderr.
var errBadFlags = errors.New("bad command line")

func main() {
	switch err := run(os.Args[1:], os.Stdout, os.Stderr); {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errBadFlags):
		os.Exit(2)
	default:
		fmt.Fprintf(os.Stderr, "marketbench: %v\n", err)
		os.Exit(1)
	}
}

// run is the whole command: it parses args, runs the selected experiments of
// experiment.Catalog() in order and prints the run's telemetry.
func run(args []string, stdout, stderr io.Writer) error {
	exps := experiment.Catalog()
	fs := flag.NewFlagSet("marketbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "Usage: marketbench [flags]\n\nExperiments (-run):")
		for _, e := range exps {
			fmt.Fprintf(stderr, "  %-20s %s\n", e.Name, e.Title)
		}
		fmt.Fprintln(stderr, "\nFlags:")
		fs.PrintDefaults()
	}
	runName := fs.String("run", "all", "experiment to run, or all")
	seed := fs.Int64("seed", 2006, "RNG seed for all experiments")
	csvDir := fs.String("csv", "", "directory to write plot-ready CSV files (optional)")
	reps := fs.Int("reps", 1, "independent replications per experiment (1 = single run)")
	parallel := fs.Int("parallel", 0, "replication workers; 0 = GOMAXPROCS (output is identical for any value)")
	strat := fs.String("strategy", "",
		"strategies experiment: comma-separated matchmaking strategies to compare (default all registered)")
	mechs := fs.String("mechanism", "",
		"mechanisms experiment: comma-separated clearing rules to compare (default all registered)")
	horizon := fs.Duration("horizon", 0,
		"strategies experiment: forecast horizon (0 = experiment default)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errBadFlags
	}
	tracing.InitSlog("marketbench", stderr, slog.LevelWarn)
	// Nothing here reads a span, so the worlds record none: a job's
	// lifecycle span, started in the process-wide tracer, is dropped unsampled.
	tracing.Default().SetSampleRatio(0)

	if *runName != "all" {
		e, ok := experiment.Lookup(*runName)
		if !ok {
			valid := "all"
			for _, e := range exps {
				valid += "|" + e.Name
			}
			return fmt.Errorf("unknown experiment %q (valid: %s)", *runName, valid)
		}
		exps = []experiment.Experiment{e}
	}
	// The two families with flags of their own are rebuilt from them.
	sp, mp := experiment.DefaultStrategiesParams(), experiment.DefaultMechanismsParams()
	sp.Strategies = list(*strat, sp.Strategies)
	mp.Mechanisms = list(*mechs, mp.Mechanisms)
	if *horizon > 0 {
		sp.Horizon = *horizon
	}
	for _, flagged := range []experiment.Experiment{experiment.Strategies(sp), experiment.Mechanisms(mp)} {
		for i := range exps {
			if exps[i].Name == flagged.Name {
				exps[i] = flagged
			}
		}
	}
	for _, e := range exps {
		fmt.Fprintf(stdout, "=== %s ===\n", strings.ToUpper(e.Name))
		start := time.Now()
		out, err := runOne(e, *seed, *csvDir, *reps, *parallel)
		if err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
		fmt.Fprint(stdout, out)
		if *reps > 1 {
			// Keep wall-clock noise off stdout so replicated output is
			// byte-for-byte comparable across runs and worker counts.
			fmt.Fprintln(stdout)
			fmt.Fprintf(stderr, "(%s in %.1fs)\n", e.Name, time.Since(start).Seconds())
		} else {
			fmt.Fprintf(stdout, "(%s in %.1fs)\n\n", e.Name, time.Since(start).Seconds())
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
	fmt.Fprint(stdout, telemetryFinish(*reps > 1))
	return nil
}
