package main

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"tycoongrid/internal/experiment"
)

// marketbench runs the command in-process and returns what it printed.
func marketbench(t *testing.T, args ...string) (stdout string, err error) {
	t.Helper()
	var out bytes.Buffer
	err = run(args, &out, io.Discard)
	return out.String(), err
}

var timingLine = regexp.MustCompile(`(?m)^\([a-z0-9-]+ in [0-9.]+s\)\n`)

// experimentSections is the part of a single run's output that is a function
// of the seed alone: everything before the metrics snapshot, without the
// wall-time line that closes each section.
func experimentSections(out string) string {
	out, _, _ = strings.Cut(out, "=== METRICS SNAPSHOT ===\n")
	return timingLine.ReplaceAllString(out, "")
}

// TestAllExperimentsGolden pins every printed table: `-run all -seed 2006`
// against the sections the binary printed before the experiments were
// declared in a catalog (the golden was taken from that binary, and its
// FIGURE6 section retaken once, when Best Response began to sum a run as
// products and one bid of that run rounded to one more microcredit). A
// dispatch change must leave every byte here where it is.
func TestAllExperimentsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all fourteen experiments (~5 s)")
	}
	want, err := os.ReadFile(filepath.Join("testdata", "all_seed2006.golden"))
	if err != nil {
		t.Fatal(err)
	}
	out, err := marketbench(t, "-run", "all", "-seed", "2006")
	if err != nil {
		t.Fatal(err)
	}
	if got := experimentSections(out); got != string(want) {
		t.Errorf("experiment sections drifted from testdata/all_seed2006.golden\n got:\n%s\nwant:\n%s", got, want)
	}
	for _, tail := range []string{"=== METRICS SNAPSHOT ===", "=== TSDB SERIES ===", "=== SLO ==="} {
		if !strings.Contains(out, tail) {
			t.Errorf("single run lost its %s block", tail)
		}
	}
}

// TestReplicatedOutputIgnoresWorkerCount: stdout and both CSVs of a
// replicated run are byte-identical at -parallel 1 and 2.
func TestReplicatedOutputIgnoresWorkerCount(t *testing.T) {
	var outs [2]string
	var dirs [2]string
	for i, workers := range []string{"1", "2"} {
		dirs[i] = t.TempDir()
		out, err := marketbench(t, "-run", "figure7", "-reps", "3", "-parallel", workers, "-csv", dirs[i])
		if err != nil {
			t.Fatal(err)
		}
		outs[i] = out
	}
	if outs[0] != outs[1] {
		t.Errorf("stdout differs between 1 and 2 workers:\n%s\n---\n%s", outs[0], outs[1])
	}
	if !strings.Contains(outs[0], "3 replications") || !strings.Contains(outs[0], "=== TELEMETRY CATALOGUE ===") {
		t.Errorf("not a replicated run's output:\n%s", outs[0])
	}
	for _, name := range []string{"figure7_summary.csv", "figure7_reps.csv"} {
		a, err := os.ReadFile(filepath.Join(dirs[0], name))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dirs[1], name))
		if err != nil {
			t.Fatal(err)
		}
		if len(a) == 0 || !bytes.Equal(a, b) {
			t.Errorf("%s differs between 1 and 2 workers (%d and %d bytes)", name, len(a), len(b))
		}
	}
}

// TestUnknownExperimentListsTheCatalog: the refusal names exactly the
// experiments of experiment.Catalog(), in its order.
func TestUnknownExperimentListsTheCatalog(t *testing.T) {
	out, err := marketbench(t, "-run", "nosuch")
	if err == nil {
		t.Fatalf("-run nosuch succeeded:\n%s", out)
	}
	want := "all"
	for _, e := range experiment.Catalog() {
		want += "|" + e.Name
	}
	if msg := err.Error(); !strings.Contains(msg, `"nosuch"`) || !strings.HasSuffix(msg, "(valid: "+want+")") {
		t.Errorf("error %q does not list %s", msg, want)
	}
}

// TestBadFlagSaidOnce: the flag set reports an unparsable command line (reason
// and usage, on stderr); run returns errBadFlags so that main exits 2 without
// printing it again. -h is not an error.
func TestBadFlagSaidOnce(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-experiment", "table1"}, &stdout, &stderr); !errors.Is(err, errBadFlags) {
		t.Fatalf("removed flag -experiment: %v, want errBadFlags", err)
	}
	if n := strings.Count(stderr.String(), "flag provided but not defined: -experiment"); n != 1 || stdout.Len() != 0 {
		t.Errorf("reason printed %d times, %d bytes on stdout:\n%s", n, stdout.Len(), &stderr)
	}
	stderr.Reset()
	if err := run([]string{"-h"}, &stdout, &stderr); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h: %v, want flag.ErrHelp", err)
	}
	for _, e := range experiment.Catalog() {
		if !strings.Contains(stderr.String(), e.Name) || !strings.Contains(stderr.String(), e.Title) {
			t.Errorf("-h does not list %s (%s)", e.Name, e.Title)
		}
	}
}

// TestRepsOnSingleRunExperiment: an experiment without replication columns
// runs once under -reps and says so, above its usual titled rows.
func TestRepsOnSingleRunExperiment(t *testing.T) {
	out, err := marketbench(t, "-reps", "3", "-run", "sla")
	if err != nil {
		t.Fatal(err)
	}
	sla, _ := experiment.Lookup("sla")
	if !strings.HasPrefix(out, "=== SLA ===\n(deterministic experiment; single run)\n"+sla.Title+"\n") {
		t.Errorf("output starts:\n%.300s", out)
	}
}

// TestStrategyFlagSelectsRows: -strategy rebuilds the strategies experiment
// from the flag, so one named strategy prints one row.
func TestStrategyFlagSelectsRows(t *testing.T) {
	out, err := marketbench(t, "-run", "strategies", "-strategy", "current-price")
	if err != nil {
		t.Fatal(err)
	}
	rows := strings.Split(strings.TrimSpace(experimentSections(out)), "\n")
	// Section header, title, column header, one row.
	if len(rows) != 4 || !strings.HasPrefix(rows[3], "current-price ") {
		t.Errorf("want one current-price row, got:\n%s", strings.Join(rows, "\n"))
	}
}
