package experiment

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tycoongrid/internal/bank"
	"tycoongrid/internal/stats"
)

func TestWriteCSVShape(t *testing.T) {
	var b strings.Builder
	err := writeCSV(&b, []string{"a", "b"}, nil, [][]float64{{1, 2}, {3.5, -4}})
	if err != nil {
		t.Fatal(err)
	}
	want := "a,b\n1,2\n3.5,-4\n"
	if b.String() != want {
		t.Errorf("csv = %q", b.String())
	}
	// Ragged rows rejected.
	if err := writeCSV(&strings.Builder{}, []string{"a"}, nil, [][]float64{{1, 2}}); err == nil {
		t.Error("ragged row accepted")
	}
	// A label column counts toward the width.
	b.Reset()
	if err := writeCSV(&b, []string{"name", "v"}, [][]string{{"x"}}, [][]float64{{0.25}}); err != nil || b.String() != "name,v\nx,0.25\n" {
		t.Errorf("labelled csv = %q, %v", b.String(), err)
	}
	if err := writeCSV(&strings.Builder{}, []string{"name", "v"}, [][]string{{"x"}}, [][]float64{{1, 2}}); err == nil {
		t.Error("ragged labelled row accepted")
	}
}

func TestResultWriteCSVFiles(t *testing.T) {
	dir := t.TempDir()

	table := &TableResult{Rows: []UserRow{
		{User: "u1", Budget: 100 * bank.Credit, TimeHours: 1.5, CostPerH: 2, LatencyMin: 30, Nodes: 15},
	}}
	if err := table.WriteCSV(dir, "t.csv"); err != nil {
		t.Fatal(err)
	}

	f3 := &Figure3Result{
		BudgetsPerDay: []float64{1, 2},
		Guarantees:    []float64{0.8, 0.9},
		CurvesMHz:     [][]float64{{10, 20}, {5, 15}},
	}
	if err := f3.WriteCSV(dir); err != nil {
		t.Fatal(err)
	}

	f4 := &Figure4Result{Series: []float64{0.1, 0.2}}
	if err := f4.WriteCSV(dir); err != nil {
		t.Fatal(err)
	}

	f5 := &Figure5Result{RiskFree: []float64{1, 2}, Equal: []float64{3, 4}}
	if err := f5.WriteCSV(dir); err != nil {
		t.Fatal(err)
	}

	f6 := &Figure6Result{Windows: []WindowReport{
		{Name: "hour", Buckets: []stats.Bucket{{Lo: 0, Hi: 1, Proportion: 1}}},
	}}
	if err := f6.WriteCSV(dir); err != nil {
		t.Fatal(err)
	}

	f7 := &Figure7Result{Reports: []DistReport{
		{Name: "n", ApproxBuckets: []stats.Bucket{{Lo: 0, Hi: 1, Proportion: 1}}},
	}}
	if err := f7.WriteCSV(dir); err != nil {
		t.Fatal(err)
	}

	for _, name := range []string{"t.csv", "figure3.csv", "figure4.csv", "figure5.csv", "figure6.csv", "figure7.csv"} {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		if len(lines) < 2 {
			t.Errorf("%s: only %d lines", name, len(lines))
		}
		if !strings.Contains(lines[0], ",") {
			t.Errorf("%s: header %q", name, lines[0])
		}
	}
}
