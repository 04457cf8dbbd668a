package main

import (
	"fmt"
	"strings"

	"tycoongrid/internal/experiment"
)

// list splits a comma-separated flag value; empty or "all" keeps def, the
// experiment's own default.
func list(flagValue string, def []string) []string {
	if flagValue == "" || flagValue == "all" {
		return def
	}
	return strings.Split(flagValue, ",")
}

// runOne runs e and returns what to print: the titled rows of a single run
// (also what -reps gets for an experiment without replication columns), or
// the aggregate of reps replications. With csvDir set it writes the artifact
// the result has.
func runOne(e experiment.Experiment, seed int64, csvDir string, reps, parallel int) (string, error) {
	var res fmt.Stringer
	var err error
	header := e.Title + "\n"
	switch {
	case reps <= 1:
		res, err = e.Run(seed, nil)
	case e.Cols == nil:
		header = "(deterministic experiment; single run)\n" + header
		res, err = e.Run(seed, nil)
	default:
		header = ""
		res, err = experiment.Replicate(e, experiment.ReplicationConfig{Reps: reps, Parallel: parallel, BaseSeed: seed})
	}
	if err != nil {
		return "", err
	}
	if w, ok := res.(interface{ WriteCSV(dir string) error }); ok && csvDir != "" {
		if err := w.WriteCSV(csvDir); err != nil {
			return "", err
		}
	}
	return header + res.String(), nil
}
