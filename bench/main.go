// Command bench is the repository's one benchmark: six workloads over the
// job path (simulated grid), the bid plane (marketplane) and the transfer
// path (a real bankd over HTTP), each reporting the end-to-end metrics and,
// with -trace 1, the per-layer metrics that BENCHMARK.json declares. The
// program is measured from outside: through public entry points and the
// bankd binary, never through switches added to it. See README.md.
//
//	go run ./bench --workload grid-wide --seed 1 --seconds 10 --trace 0   one run; last line is the result
//	go run ./bench [-seed N] [-runs R] [-trace 1] [-out file.json]        every workload, each in a fresh child
//	go run ./bench -compare a.json b.json                                 verdict per (workload, metric)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// runConfig is one run of one workload.
type runConfig struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	Toy      bool   // smoke-test sizes; Seconds then only bounds the bank windows
	OutDir   string // span files
	BuildDir string // the bankd binary and its data directories
}

// outcome is what a workload measured.
type outcome struct {
	attempted, failed int
	violations        []string           // correctness gates that did not hold
	e2e               map[string]float64 // end-to-end metrics, from untraced runs
	layer             map[string]float64 // per-layer metrics, from traced runs
	samples           map[string]int     // samples behind a metric, where it has any
	notes             []string
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}, samples: map[string]int{}}
}

func (o *outcome) violate(format string, args ...any) {
	o.violations = append(o.violations, fmt.Sprintf(format, args...))
}

func (o *outcome) info(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// measured fills in the end-to-end metrics every workload reports the same
// way. Rate and CPU cost are the median slice's; latency is the median over
// chunks of each chunk's quantile, in nanoseconds, chunk j cut where slice j
// is (one list of chunks per connection or worker); all are corrected for
// the machine's speed during their slice. Peak memory is process pid's,
// read now.
func (o *outcome) measured(workload string, setup float64, marks []mark, p50Chunks, tailChunks [][]float64, pid int) error {
	rss, err := peakRSSMB(pid)
	if err != nil {
		return err
	}
	speeds, factors, rates, cpus := sliceRates(workload, marks)
	var p50s, tails []float64
	for i := range p50Chunks { // one list of chunks per connection or worker
		p50s = append(p50s, corrected(p50Chunks[i], factors)...)
		tails = append(tails, corrected(tailChunks[i], factors)...)
	}
	o.e2e["setup_s"] = setup
	o.e2e["ops_per_s"] = median(rates)
	o.e2e["cpu_us_per_op"] = median(cpus)
	o.e2e["op_p50_us"] = median(p50s) / 1e3
	o.e2e["peak_rss_mb"] = rss
	o.samples["ops_per_s"], o.samples["cpu_us_per_op"] = len(rates), len(rates)
	o.samples["op_p50_us"] = len(p50s)
	// The tail is a layer metric: no bound this machine supports holds it.
	o.layer["driver.op_tail_us"] = median(tails) / 1e3
	o.layer["driver.machine_speed"] = median(speeds)
	o.info("machine speed %.2f of nominal (median of %d readings); timings are multiplied by %.2f", median(speeds), len(marks), median(factors))
	return nil
}

// traced closes a traced run: the recorder's cost, and the span file.
func (o *outcome) traced(rec *recorder, cfg runConfig, wall time.Duration) error {
	o.layer["driver.trace_overhead_pct"] = rec.overheadPct(wall)
	path, err := rec.write(cfg.OutDir, cfg.Workload)
	if err != nil {
		return err
	}
	o.info("spans: %d written to %s", len(rec.spans), path)
	return nil
}

var workloads = map[string]func(runConfig) (*outcome, error){
	"grid-wide":      runGrid,
	"grid-dense":     runGrid,
	"broker-predict": runBroker,
	"plane-burst":    runPlane,
	"bank-mem":       runBank,
	"bank-fsync":     runBank,
}

// metricValue and runResult are the result line the driver reads.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "run this one workload and print its result line (default: all, as children)")
	seed := flag.Int64("seed", 1, "seed the inputs are generated from")
	seconds := flag.Float64("seconds", 0, "measurement length; default run_seconds of BENCHMARK.json")
	trace := flag.Int("trace", 0, "1 = record spans and report per-layer metrics instead of end-to-end ones")
	runs := flag.Int("runs", 1, "suite mode: runs per workload, on seeds seed..seed+runs-1")
	out := flag.String("out", filepath.Join("bench", "out", "result.json"), "suite mode: where the runs are written")
	compare := flag.Bool("compare", false, "compare two suite outputs: -compare a.json b.json")
	flag.Parse()

	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fatal(err)
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: bench -compare a.json b.json"))
		}
		worse, err := compareFiles(os.Stdout, spec, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
	case *workload != "":
		cfg := runConfig{
			Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace != 0,
			OutDir: filepath.Join("bench", "out"), BuildDir: ".bench_build",
		}
		res, err := runOne(os.Stdout, spec, cfg)
		if err != nil {
			fatal(err)
		}
		if !res.Correct {
			os.Exit(1)
		}
	default:
		ok, err := runSuite(spec, *seed, *seconds, *runs, *trace != 0, *out)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// runOne runs a workload in this process, prints every metric by name and
// unit, and ends with the one-line JSON result.
func runOne(w *os.File, spec *benchSpec, cfg runConfig) (*runResult, error) {
	run, ok := workloads[cfg.Workload]
	if !ok || !spec.hasWorkload(cfg.Workload) {
		return nil, fmt.Errorf("unknown workload %q (have %v)", cfg.Workload, spec.workloadNames())
	}
	o, err := run(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.Workload, err)
	}
	res, err := spec.result(o, cfg.Trace)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.Workload, err)
	}

	fmt.Fprintf(w, "workload %s  seed %d  seconds %g  trace %v\n", cfg.Workload, cfg.Seed, cfg.Seconds, cfg.Trace)
	env := envBlock()
	keys := make([]string, 0, len(env))
	for k := range env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "env %-10s %s\n", k, env[k])
	}
	for _, n := range o.notes {
		fmt.Fprintln(w, "note", n)
	}
	for _, m := range spec.declared(cfg.Trace) {
		v := res.Metrics[m.Name]
		if n, ok := o.samples[m.Name]; ok {
			fmt.Fprintf(w, "%-32s %16.4f %-8s median of %d slices\n", m.Name, v.Value, v.Unit, n)
		} else {
			fmt.Fprintf(w, "%-32s %16.4f %s\n", m.Name, v.Value, v.Unit)
		}
	}
	for _, v := range o.violations {
		fmt.Fprintln(w, "VIOLATION", v)
	}
	fmt.Fprintf(w, "attempted %d  failed %d  gates %s\n", res.Attempted, res.Failed, map[bool]string{true: "pass", false: "FAIL"}[res.Correct])
	line, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(w, string(line))
	return res, nil
}
