package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// exactCounts are layer metrics that repeat exactly for a (seed, seconds)
// pair on one commit; -compare reports them as same or differs, never as a
// speed-up.
var exactCounts = map[string]bool{
	"sim.events": true, "sim.digest": true, "auction.clears": true, "auction.bids_placed": true,
	"bank.moves": true, "token.redemptions": true, "grid.tasks_completed": true,
	"pricefeed.samples": true, "arc.meta_picks": true,
	"marketplane.clears": true, "marketplane.local_transfers": true, "marketplane.cross_shard_share": true,
	"durable.records_per_transfer": true, "durable.bytes_per_transfer": true,
}

func readSuite(path string) (*suiteFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f suiteFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// verdict judges one end-to-end metric: b against a, by the metric's
// direction and bound. A median that worsened by more than the bound is
// "worse"; where either side's own spread exceeds the bound the comparison
// is "unresolved" unless the two sides' runs do not overlap at all.
func verdict(m specMetric, a, b []float64) (string, float64) {
	sign := 1.0 // positive change = worse
	if m.Better == "higher" {
		sign = -1
	}
	change := sign * (median(b) - median(a)) / median(a)
	if spread(a) > m.Bound || spread(b) > m.Bound {
		// Badness: larger is worse, whichever way the metric points.
		minA, maxA := badness(a, sign)
		minB, maxB := badness(b, sign)
		switch {
		case maxB < minA: // every run of b better than every run of a
			return "ok", change
		case minB > maxA && change > m.Bound:
			return "worse", change
		}
		return "unresolved", change
	}
	if change > m.Bound {
		return "worse", change
	}
	return "ok", change
}

// badness returns the least and greatest of sign*v.
func badness(vs []float64, sign float64) (lo, hi float64) {
	lo, hi = sign*vs[0], sign*vs[0]
	for _, v := range vs[1:] {
		lo, hi = min(lo, sign*v), max(hi, sign*v)
	}
	return lo, hi
}

// compareFiles prints one row per (workload, metric) of b against a and
// reports whether any end-to-end metric is worse.
func compareFiles(w io.Writer, spec *benchSpec, pathA, pathB string) (bool, error) {
	a, err := readSuite(pathA)
	if err != nil {
		return false, err
	}
	b, err := readSuite(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "a: %s (commit %s, %s)\nb: %s (commit %s, %s)\n", pathA, a.Env["commit"], a.Env["cpu"], pathB, b.Env["commit"], b.Env["cpu"])
	fmt.Fprintf(w, "%-15s %-32s %14s %14s %8s  %s\n", "workload", "metric", "a (median)", "b (median)", "change", "verdict")
	anyWorse := false
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := a.values(wl.Name, m.Name, false), b.values(wl.Name, m.Name, false)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v, change := verdict(m, va, vb)
			anyWorse = anyWorse || v == "worse"
			fmt.Fprintf(w, "%-15s %-32s %14.4f %14.4f %+7.1f%%  %s (bound %g%%, spreads %.1f%% / %.1f%%, n=%d/%d)\n", wl.Name, m.Name,
				median(va), median(vb), 100*change, v, 100*m.Bound, 100*spread(va), 100*spread(vb), len(va), len(vb))
		}
		for _, m := range spec.PerLayer {
			va, vb := a.values(wl.Name, m.Name, true), b.values(wl.Name, m.Name, true)
			if len(va) == 0 || len(vb) == 0 || (median(va) == 0 && median(vb) == 0) {
				continue
			}
			note := "layer, no bound"
			if exactCounts[m.Name] {
				note = "exact: same"
				if median(va) != median(vb) {
					note = "exact: differs"
				}
			}
			change := 0.0
			if median(va) != 0 {
				change = (median(vb) - median(va)) / median(va)
			}
			fmt.Fprintf(w, "%-15s %-32s %14.4f %14.4f %+7.1f%%  %s\n", wl.Name, m.Name, median(va), median(vb), 100*change, note)
		}
	}
	return anyWorse, nil
}
