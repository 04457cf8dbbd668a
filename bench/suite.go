package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
)

// suiteRun is one child's result, as stored in the suite's output file.
type suiteRun struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	Digest   string `json:"digest,omitempty"` // sim.digest the child printed, if the workload has one
	Speed    string `json:"machine_speed"`    // the speedometer's reading, share of nominal
	runResult
}

// suiteFile is what suite mode writes and -compare reads.
type suiteFile struct {
	Env     map[string]string `json:"env"`
	Seconds float64           `json:"seconds"`
	Runs    []suiteRun        `json:"runs"`
}

var (
	digestLine = regexp.MustCompile(`(?m)^note sim\.digest ([0-9a-f]+)`)
	speedLine  = regexp.MustCompile(`(?m)^note machine speed ([0-9.]+)`)
)

// runChild runs one workload in a fresh process — clean metrics registry,
// heap and VmHWM — and parses the result line it ends with.
func runChild(exe string, workload string, seed int64, seconds float64, trace bool) (suiteRun, string, error) {
	run := suiteRun{Workload: workload, Seed: seed, Trace: trace}
	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", t)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run() // exit 1 = gates failed, result line still printed
	text := strings.TrimSpace(stdout.String())
	last := text[strings.LastIndexByte(text, '\n')+1:]
	if err := json.Unmarshal([]byte(last), &run.runResult); err != nil || run.Metrics == nil {
		return run, text, fmt.Errorf("%s seed %d: no result line (%v)", workload, seed, runErr)
	}
	if m := digestLine.FindStringSubmatch(text); m != nil {
		run.Digest = m[1]
	}
	if m := speedLine.FindStringSubmatch(text); m != nil {
		run.Speed = m[1]
	}
	return run, text, nil
}

// runSuite runs every workload `runs` times (seeds seed..seed+runs-1), each
// in a fresh child, optionally followed by a traced run of the same seed;
// prints every metric by name and unit; writes all runs to outPath.
func runSuite(spec *benchSpec, seed int64, seconds float64, runs int, trace bool, outPath string) (bool, error) {
	exe, err := os.Executable()
	if err != nil {
		return false, err
	}
	file := suiteFile{Env: envBlock(), Seconds: seconds}
	ok := true
	modes := []bool{false}
	if trace {
		modes = append(modes, true)
	}
	for r := 0; r < runs; r++ {
		for _, w := range spec.Workloads {
			var untraced suiteRun
			for _, traced := range modes {
				run, text, err := runChild(exe, w.Name, seed+int64(r), seconds, traced)
				if err != nil {
					return false, err
				}
				file.Runs = append(file.Runs, run)
				fmt.Printf("%-15s seed %-3d trace %-5v attempted %-8d failed %-3d machine speed %s gates %s\n", w.Name, run.Seed,
					traced, run.Attempted, run.Failed, run.Speed, map[bool]string{true: "pass", false: "FAIL"}[run.Correct])
				if !run.Correct {
					ok = false
					fmt.Println(text)
				}
				if !traced {
					untraced = run
					continue
				}
				// Two runs of one seed: the simulation must repeat exactly.
				if run.Digest != untraced.Digest {
					ok = false
					fmt.Printf("%-15s seed %-3d NOT DETERMINISTIC: sim.digest %s untraced, %s traced\n", w.Name, run.Seed, untraced.Digest, run.Digest)
				}
				fmt.Printf("%-15s seed %-3d recorder cost %.3f%% of the traced wall\n",
					w.Name, run.Seed, run.Metrics["driver.trace_overhead_pct"].Value)
			}
		}
	}

	for k, v := range file.Env {
		fmt.Printf("env %-10s %s\n", k, v)
	}
	for _, w := range spec.Workloads {
		fmt.Printf("\n%s  (%d runs, %g s each)\n", w.Name, runs, seconds)
		for _, traced := range []bool{false, true} {
			for _, m := range spec.declared(traced) {
				vs := file.values(w.Name, m.Name, traced)
				if len(vs) == 0 || (traced && median(vs) == 0) {
					continue // layers this workload does not reach
				}
				fmt.Printf("  %-32s %16.4f %-6s spread %5.1f%%", m.Name, median(vs), m.Unit, 100*spread(vs))
				if m.Bound > 0 {
					fmt.Printf("  bound %g%%", 100*m.Bound)
				}
				fmt.Println()
			}
		}
	}

	if err := os.MkdirAll(filepath.Dir(outPath), 0o755); err != nil {
		return false, err
	}
	data, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return false, err
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		return false, err
	}
	fmt.Printf("\nwrote %s\n", outPath)
	return ok, nil
}

// values collects one metric's value from every matching run.
func (f *suiteFile) values(workload, metric string, traced bool) []float64 {
	var vs []float64
	for _, r := range f.Runs {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload && r.Trace == traced {
			vs = append(vs, v.Value)
		}
	}
	return vs
}
