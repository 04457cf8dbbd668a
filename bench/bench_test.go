package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// reached lists, per workload, layer metrics that must be non-zero at toy
// size: the layers the workload exists to exercise. Everything else a
// workload reports may be 0 (a layer it does not reach).
var reached = map[string][]string{
	"grid-wide":      {"agent.submit_us", "grid.tick_us", "sim.events", "auction.clears", "bank.moves", "token.redemptions", "core.best_response_ns", "token.verify_ns", "trace.record_ns", "sim.digest"},
	"grid-dense":     {"agent.submit_us", "grid.tick_us", "auction.bids_placed", "grid.tasks_completed", "auction.tick_ns", "auction.shares_ns", "bank.move_ns", "go.allocs_per_job"},
	"broker-predict": {"strategy.pick_us", "strategy.pick_share", "arc.meta_picks", "strategy.pick_ns", "predict.forecast_ns", "predict.observe_ns", "sim.digest"},
	"plane-burst":    {"marketplane.fund_share", "marketplane.tick_share", "marketplane.settle_share", "marketplane.clears", "marketplane.cross_shard_share", "marketplane.twophase_ns", "marketplane.local_move_ns"},
	"bank-mem":       {"client.sign_us", "http.roundtrip_us", "bankd.cpu_us_per_transfer", "httpapi.handler_us", "bank.transfer_us", "httpapi.serve_ns", "httpapi.serve_allocs", "httpapi.mux_ns", "pki.verify_ns"},
	"bank-fsync":     {"durable.fsync_us", "durable.transfers_per_fsync", "durable.records_per_transfer", "durable.bytes_per_transfer", "durable.append_ns", "bank.transfer_durable_ns"},
}

// shares lists, per workload, the in-vivo shares that partition its timed
// wall (or a transfer) and so must sum to 1.
var shares = map[string][]string{
	"grid-wide":   {"driver.share", "arc.submit_share", "agent.submit_share", "grid.tick_share"},
	"grid-dense":  {"driver.share", "arc.submit_share", "agent.submit_share", "grid.tick_share"},
	"plane-burst": {"marketplane.fund_share", "marketplane.discover_share", "marketplane.enqueue_share", "marketplane.tick_share", "marketplane.settle_share"},
	"bank-mem":    {"client.share", "http.roundtrip_share"},
	"bank-fsync":  {"client.share", "http.roundtrip_share"},
}

// TestSmoke runs all six workloads at toy sizes and checks the gates, the
// metric contract with BENCHMARK.json, determinism, and -compare.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, m := range append(append([]specMetric{}, spec.EndToEnd...), spec.PerLayer...) {
		if !name.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("metric name %q is malformed or declared twice", m.Name)
		}
		seen[m.Name] = true
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}

	dir := t.TempDir()
	file := suiteFile{Env: envBlock(), Seconds: 1}
	for _, w := range spec.Workloads {
		cfg := runConfig{Workload: w.Name, Seed: 1, Seconds: 1, Trace: true, Toy: true,
			OutDir: filepath.Join(dir, "out"), BuildDir: filepath.Join(dir, "build")}
		o, err := workloads[w.Name](cfg)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if len(o.violations) != 0 || o.failed != 0 || o.attempted == 0 {
			t.Errorf("%s: attempted %d, failed %d, violations %v", w.Name, o.attempted, o.failed, o.violations)
		}
		// result rejects a metric that is measured but not declared, and an
		// end-to-end metric that is declared but not measured.
		for _, traced := range []bool{false, true} {
			res, err := spec.result(o, traced)
			if err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			if len(res.Metrics) != len(spec.declared(traced)) {
				t.Errorf("%s: %d metrics reported, %d declared", w.Name, len(res.Metrics), len(spec.declared(traced)))
			}
			file.Runs = append(file.Runs, suiteRun{Workload: w.Name, Seed: 1, Trace: traced, runResult: *res})
		}
		for _, m := range spec.EndToEnd {
			if v := o.e2e[m.Name]; v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, v)
			}
		}
		for _, m := range reached[w.Name] {
			if v := o.layer[m]; v <= 0 {
				t.Errorf("%s: layer metric %s = %v, want > 0", w.Name, m, v)
			}
		}
		if parts := shares[w.Name]; parts != nil {
			total := 0.0
			for _, m := range parts {
				total += o.layer[m]
			}
			if math.Abs(total-1) > 0.02 {
				t.Errorf("%s: in-vivo shares %v sum to %.4f, want 1 ± 0.02", w.Name, parts, total)
			}
		}
		if _, err := os.Stat(filepath.Join(cfg.OutDir, "trace-"+w.Name+".json")); err != nil {
			t.Errorf("%s: no span file: %v", w.Name, err)
		}

		// Two runs of one seed must simulate the same thing.
		if strings.HasPrefix(w.Name, "grid-") {
			again, err := workloads[w.Name](cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range []string{"sim.digest", "sim.events", "auction.clears", "bank.moves"} {
				if o.layer[m] != again.layer[m] {
					t.Errorf("%s: %s differs between two runs of seed 1: %v vs %v", w.Name, m, o.layer[m], again.layer[m])
				}
			}
		}
	}

	// -compare: a result against itself is all ok; one latency worsened by
	// more than its bound is worse, and nothing else is.
	write := func(name string, f suiteFile) string {
		data, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", file)
	var report bytes.Buffer
	if worse, err := compareFiles(&report, spec, base, base); err != nil || worse || strings.Contains(report.String(), "unresolved") {
		t.Errorf("self-compare: worse=%v err=%v\n%s", worse, err, report.String())
	}
	doctored := file
	doctored.Runs = nil
	for _, r := range file.Runs {
		if r.Workload == "bank-mem" && !r.Trace {
			ms := map[string]metricValue{}
			for k, v := range r.Metrics {
				ms[k] = v
			}
			v := ms["op_p50_us"]
			v.Value *= 1.30 // the bound is 0.25
			ms["op_p50_us"] = v
			r.Metrics = ms
		}
		doctored.Runs = append(doctored.Runs, r)
	}
	report.Reset()
	worse, err := compareFiles(&report, spec, base, write("b.json", doctored))
	if err != nil || !worse {
		t.Errorf("doctored compare: worse=%v err=%v\n%s", worse, err, report.String())
	}
	if n := strings.Count(report.String(), " worse "); n != 1 {
		t.Errorf("doctored compare: %d rows worse, want exactly the doctored one\n%s", n, report.String())
	}
}
