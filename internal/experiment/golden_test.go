package experiment

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/golden CSVs from the current implementation")

// TestGoldenProportionalCSVs pins the default proportional-share market
// bit-for-bit: the replicated summary and per-rep CSVs of every experiment
// that reads a recorded price trace (seed 2006, 4 reps, 2 workers — the
// marketbench -reps 4 -parallel 2 invocation), and the printed table of the
// single-run sla calibration, must stay byte-identical to the files under
// testdata/golden. Any last-ulp drift in the clearing fold, the charge
// sequence, the recorded trace, the forecast or the reduction order shows up
// here as a diff.
//
// Regenerate only when an intentional behavior change is being made, with the
// row-by-row diff explained in EXPERIMENTS.md:
// go test ./internal/experiment -run Golden -update-golden
func TestGoldenProportionalCSVs(t *testing.T) {
	if testing.Short() {
		t.Skip("golden replication run takes ~10s")
	}
	cfg := ReplicationConfig{Reps: 4, Parallel: 2, BaseSeed: 2006}

	t.Run("sla", func(t *testing.T) {
		t.Parallel()
		spec, ok := Lookup("sla")
		if !ok {
			t.Fatal("sla is not in the catalog")
		}
		res, err := spec.Run(cfg.BaseSeed, quietTracer())
		if err != nil {
			t.Fatal(err)
		}
		compareGolden(t, "sla.txt", []byte(res.String()))
	})
	for _, name := range []string{"figure3", "figure4", "figure6", "ablation-smoothing", "strategies"} {
		spec, ok := Lookup(name)
		if !ok {
			t.Fatalf("%s is not in the catalog", name)
		}
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			agg, err := Replicate(spec, cfg)
			if err != nil {
				t.Fatalf("replicate: %v", err)
			}
			summary, err := agg.SummaryCSV()
			if err != nil {
				t.Fatalf("summary csv: %v", err)
			}
			perRep, err := agg.PerRepCSV()
			if err != nil {
				t.Fatalf("per-rep csv: %v", err)
			}
			compareGolden(t, spec.Name+"_summary.csv", summary)
			compareGolden(t, spec.Name+"_reps.csv", perRep)
		})
	}
}

func compareGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatalf("update golden %s: %v", name, err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden %s: %v", name, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden baseline (proportional output must stay bit-identical)\n got:\n%s\nwant:\n%s",
			name, got, want)
	}
}
