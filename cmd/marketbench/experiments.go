package main

import (
	"fmt"
	"strings"
	"time"

	"tycoongrid/internal/experiment"
)

// mechanismsParams applies the -mechanism flag on top of the experiment's
// defaults: a comma-separated subset of mechanism.Names() to compare, or
// empty/"all" for every registered clearing rule.
func mechanismsParams(mechs string) experiment.MechanismsParams {
	p := experiment.DefaultMechanismsParams()
	if mechs != "" && mechs != "all" {
		p.Mechanisms = strings.Split(mechs, ",")
	}
	return p
}

// strategiesParams applies the -strategy / -horizon flags on top of the
// experiment's defaults.
func strategiesParams(strat string, horizon time.Duration) experiment.StrategiesParams {
	p := experiment.DefaultStrategiesParams()
	if strat != "" && strat != "all" {
		p.Strategies = strings.Split(strat, ",")
	}
	if horizon > 0 {
		p.Horizon = horizon
	}
	return p
}

// runReplicated runs an experiment's replication spec across a worker pool
// and returns the aggregate table. Experiments without a spec (deterministic
// sweeps) fall back to a single run.
func runReplicated(name string, seed int64, csvDir string, reps, parallel int, strat string, horizon time.Duration, mechs string) (string, error) {
	var spec experiment.RepSpec
	var err error
	switch name {
	case "strategies":
		// Honor the strategy/horizon flags rather than the stock spec.
		spec = experiment.RepSpecStrategies(strategiesParams(strat, horizon))
	case "mechanisms":
		spec = experiment.RepSpecMechanisms(mechanismsParams(mechs))
	default:
		spec, err = experiment.DefaultRepSpec(name)
	}
	if err != nil {
		out, err := runExperiment(name, seed, csvDir, strat, horizon, mechs)
		if err != nil {
			return "", err
		}
		return "(deterministic experiment; single run)\n" + out, nil
	}
	agg, err := experiment.Replicate(spec, experiment.ReplicationConfig{
		Reps: reps, Parallel: parallel, BaseSeed: seed,
	})
	if err != nil {
		return "", err
	}
	if csvDir != "" {
		if err := agg.WriteCSV(csvDir); err != nil {
			return "", err
		}
	}
	return agg.String(), nil
}

// runExperiment dispatches one named experiment with the given seed and
// returns its printable result.
func runExperiment(name string, seed int64, csvDir string, strat string, horizon time.Duration, mechs string) (string, error) {
	switch name {
	case "mechanisms":
		p := mechanismsParams(mechs)
		p.World.Seed = seed
		res, err := experiment.RunMechanisms(p)
		if err != nil {
			return "", err
		}
		return "Clearing-rule comparison: proportional share vs posted price vs VCG\n" + res.String(), nil
	case "strategies":
		p := strategiesParams(strat, horizon)
		p.World.Seed = seed
		res, err := experiment.RunStrategies(p)
		if err != nil {
			return "", err
		}
		if csvDir != "" {
			if err := res.WriteCSV(csvDir); err != nil {
				return "", err
			}
		}
		return "Matchmaking strategy comparison on a bursty/steady partitioned grid\n" + res.String(), nil
	case "table1":
		p := experiment.Table1Params()
		p.World.Seed = seed
		res, err := experiment.RunBestResponseTable(p)
		if err != nil {
			return "", err
		}
		if csvDir != "" {
			if err := res.WriteCSV(csvDir, "table1.csv"); err != nil {
				return "", err
			}
		}
		return "Equal distribution of funds (paper Table 1)\n" + res.String(), nil
	case "table2":
		p := experiment.Table2Params()
		p.World.Seed = seed
		res, err := experiment.RunBestResponseTable(p)
		if err != nil {
			return "", err
		}
		if csvDir != "" {
			if err := res.WriteCSV(csvDir, "table2.csv"); err != nil {
				return "", err
			}
		}
		return "Two-point distribution of funds 100/100/500/500/500 (paper Table 2)\n" + res.String(), nil
	case "figure3":
		p := experiment.DefaultFigure3Params()
		p.Load.World.Seed = seed
		res, err := experiment.RunFigure3(p)
		if err != nil {
			return "", err
		}
		if csvDir != "" {
			if err := res.WriteCSV(csvDir); err != nil {
				return "", err
			}
		}
		return "Normal-distribution prediction with guarantee levels (paper Figure 3)\n" + res.String(), nil
	case "figure4":
		p := experiment.DefaultFigure4Params()
		p.Load.World.Seed = seed
		res, err := experiment.RunFigure4(p)
		if err != nil {
			return "", err
		}
		if csvDir != "" {
			if err := res.WriteCSV(csvDir); err != nil {
				return "", err
			}
		}
		return "AR(6) one-hour forecast vs persistence benchmark (paper Figure 4)\n" + res.String(), nil
	case "figure5":
		p := experiment.DefaultFigure5Params()
		p.Seed = seed
		res, err := experiment.RunFigure5(p)
		if err != nil {
			return "", err
		}
		if csvDir != "" {
			if err := res.WriteCSV(csvDir); err != nil {
				return "", err
			}
		}
		return "Risk-free portfolio vs equal shares (paper Figure 5)\n" + res.String(), nil
	case "figure6":
		p := experiment.DefaultFigure6Params()
		p.Load.World.Seed = seed
		res, err := experiment.RunFigure6(p)
		if err != nil {
			return "", err
		}
		if csvDir != "" {
			if err := res.WriteCSV(csvDir); err != nil {
				return "", err
			}
		}
		return "Price distribution in hour/day/week windows (paper Figure 6)\n" + res.String(), nil
	case "figure7":
		p := experiment.DefaultFigure7Params()
		p.Seed = seed
		res, err := experiment.RunFigure7(p)
		if err != nil {
			return "", err
		}
		if csvDir != "" {
			if err := res.WriteCSV(csvDir); err != nil {
				return "", err
			}
		}
		return "Window approximation of Normal/Exp/Beta inputs (paper Figure 7)\n" + res.String(), nil
	case "ablation-scheduler":
		p := experiment.Table2Params()
		p.World.Seed = seed
		p.SubJobs = 30
		res, err := experiment.RunAblationScheduler(p)
		if err != nil {
			return "", err
		}
		return "Market vs FIFO batch scheduling on the Table 2 workload\n" + res.String(), nil
	case "ablation-cap":
		res, err := experiment.RunAblationCap()
		if err != nil {
			return "", err
		}
		return "Host-cap ranking: utility contribution vs raw bid size\n" + res.String(), nil
	case "ablation-smoothing":
		p := experiment.DefaultFigure4Params()
		p.Load.World.Seed = seed
		p.ResampleSnapshots = 1
		p.Lambda = 2000
		p.HorizonSteps = 360
		p.Stride = 360
		p.FitWindow = 17280
		res, err := experiment.RunAblationSmoothing(p)
		if err != nil {
			return "", err
		}
		return "AR smoothing pre-pass ablation (raw 10 s snapshots)\n" + res.String(), nil
	case "sla":
		p := experiment.DefaultSLAParams()
		p.Load.World.Seed = seed
		res, err := experiment.RunSLACalibration(p)
		if err != nil {
			return "", err
		}
		return "SLA pricing calibration, normal vs empirical model (paper §7 future work)\n" + res.String(), nil
	case "ablation-interval":
		res, err := experiment.RunAblationInterval([]time.Duration{
			10 * time.Second, time.Minute, 5 * time.Minute,
		})
		if err != nil {
			return "", err
		}
		return "Reallocation-interval sweep on the Table 2 workload\n" + res.String(), nil
	}
	return "", fmt.Errorf("unknown experiment %q", name)
}
