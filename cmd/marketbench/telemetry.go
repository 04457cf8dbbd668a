package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"tycoongrid/internal/metrics"
	"tycoongrid/internal/slo"
	"tycoongrid/internal/telemetry"
)

// telemetryFinish runs the end-of-run telemetry capture — two ticks of a
// telemetry plane over the process registry, so the derived :rate series and
// the slo_* gauge families all exist — and renders the final snapshot.
//
// Two renderings share the capture:
//
//   - full (single runs): the registry in the /metrics exposition format, the
//     tsdb series with point counts, and the SLO table. Values include wall
//     timings, so this stays out of replicated output.
//   - deterministic (replicated runs): the telemetry *catalogue* — sorted
//     sample and series names plus per-objective status, no values. Which
//     families and series exist is a function of the seeded workload alone,
//     so replicated runs stay byte-identical across reruns and across any
//     -parallel worker count.
func telemetryFinish(deterministic bool) string {
	plane := telemetry.NewPlane(telemetry.Config{Service: "marketbench"})
	plane.Collect() // seeds the rate baseline; stores gauges + quantiles; sets the slo_* gauges
	plane.Collect() // second pass: derived :rate series + slo_* gauges
	db := plane.DB()
	statuses := plane.Evaluator().Evaluate()

	var sb strings.Builder
	if deterministic {
		sb.WriteString("=== TELEMETRY CATALOGUE ===\n")
		snap := metrics.Default().Snapshot()
		var names []string
		for _, c := range snap.Counters {
			names = append(names, metrics.SampleName(c.Name, c.Labels))
		}
		for _, g := range snap.Gauges {
			names = append(names, metrics.SampleName(g.Name, g.Labels))
		}
		for _, h := range snap.Histograms {
			names = append(names, metrics.SampleName(h.Name, h.Labels))
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(&sb, "metric %s\n", n)
		}
		for _, n := range db.Names() { // Names() comes back sorted
			fmt.Fprintf(&sb, "series %s\n", n)
		}
		for _, st := range statuses {
			fmt.Fprintf(&sb, "slo %s %s\n", st.Objective.Name, statusWord(st))
		}
		return sb.String()
	}

	sb.WriteString("=== METRICS SNAPSHOT ===\n")
	_ = metrics.Default().WritePrometheus(&sb) // a strings.Builder never fails a write
	sb.WriteString("=== TSDB SERIES ===\n")
	for _, n := range db.Names() {
		s, ok := db.Lookup(n)
		if !ok {
			continue
		}
		last, _ := s.Latest() // none held: an empty range
		fmt.Fprintf(&sb, "%s points=%d\n", n, len(s.Range(last.T-(24*time.Hour).Nanoseconds(), last.T)))
	}
	sb.WriteString("=== SLO ===\n")
	for _, st := range statuses {
		fmt.Fprintf(&sb, "%-24s %-8s burn_fast=%.3g burn_slow=%.3g samples=%d bad=%d\n",
			st.Objective.Name, statusWord(st), st.BurnFast, st.BurnSlow,
			st.Samples, st.BadSamples)
	}
	return sb.String()
}

func statusWord(st slo.Status) string {
	switch {
	case st.Violating:
		return "VIOLATING"
	case st.NoData:
		return "no-data"
	default:
		return "ok"
	}
}
