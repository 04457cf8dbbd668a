package experiment

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
)

// writeCSV writes header, then one line per row of values: labels[i]'s
// fields first when labels is non-nil (a name, or a replication's index and
// seed), then rows[i]'s values in their shortest exact form. A line whose
// width differs from the header's is refused.
func writeCSV(w io.Writer, header []string, labels [][]string, rows [][]float64) error {
	if labels != nil && len(labels) != len(rows) {
		return fmt.Errorf("experiment: csv has %d labels for %d rows", len(labels), len(rows))
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return err
	}
	var line []string
	for i, row := range rows {
		line = line[:0]
		if labels != nil {
			line = append(line, labels[i]...)
		}
		for _, v := range row {
			line = append(line, strconv.FormatFloat(v, 'g', -1, 64))
		}
		if len(line) != len(header) {
			return fmt.Errorf("experiment: csv row %d has %d fields, header %d", i, len(line), len(header))
		}
		if err := cw.Write(line); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// writeCSVFile writes a CSV (see writeCSV) into dir/name.
func writeCSVFile(dir, name string, header []string, labels [][]string, rows [][]float64) error {
	var buf bytes.Buffer
	if err := writeCSV(&buf, header, labels, rows); err != nil {
		return err
	}
	return writeFile(dir, name, buf.Bytes())
}

// writeFile writes data into dir/name, making dir first.
func writeFile(dir, name string, data []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}

// WriteCSV exports the Figure 3 capacity curves (one column per guarantee
// level) as figure3.csv in dir.
func (r *Figure3Result) WriteCSV(dir string) error {
	header := []string{"budget_per_day"}
	for _, g := range r.Guarantees {
		header = append(header, fmt.Sprintf("capacity_mhz_p%02.0f", g*100))
	}
	rows := make([][]float64, len(r.BudgetsPerDay))
	for i, b := range r.BudgetsPerDay {
		row := []float64{b}
		for g := range r.Guarantees {
			row = append(row, r.CurvesMHz[g][i])
		}
		rows[i] = row
	}
	return writeCSVFile(dir, "figure3.csv", header, nil, rows)
}

// WriteCSV exports the Figure 4 evaluation price trace as figure4.csv.
func (r *Figure4Result) WriteCSV(dir string) error {
	rows := make([][]float64, len(r.Series))
	for i, v := range r.Series {
		rows[i] = []float64{float64(i), v}
	}
	return writeCSVFile(dir, "figure4.csv", []string{"bucket", "price"}, nil, rows)
}

// WriteCSV exports the Figure 5 aggregate performance series as figure5.csv.
func (r *Figure5Result) WriteCSV(dir string) error {
	rows := make([][]float64, len(r.RiskFree))
	for i := range r.RiskFree {
		rows[i] = []float64{float64(i), r.RiskFree[i], r.Equal[i]}
	}
	return writeCSVFile(dir, "figure5.csv",
		[]string{"step", "risk_free", "equal_share"}, nil, rows)
}

// WriteCSV exports the Figure 6 window densities as figure6.csv: one row per
// (window, bucket).
func (r *Figure6Result) WriteCSV(dir string) error {
	header := []string{"window_index", "bucket_lo", "bucket_hi", "proportion"}
	var rows [][]float64
	for wi, w := range r.Windows {
		for _, b := range w.Buckets {
			rows = append(rows, []float64{float64(wi), b.Lo, b.Hi, b.Proportion})
		}
	}
	return writeCSVFile(dir, "figure6.csv", header, nil, rows)
}

// WriteCSV exports the Figure 7 approximated densities as figure7.csv.
func (r *Figure7Result) WriteCSV(dir string) error {
	header := []string{"dist_index", "bucket_lo", "bucket_hi", "approx_proportion"}
	var rows [][]float64
	for di, rep := range r.Reports {
		for _, b := range rep.ApproxBuckets {
			rows = append(rows, []float64{float64(di), b.Lo, b.Hi, b.Proportion})
		}
	}
	return writeCSVFile(dir, "figure7.csv", header, nil, rows)
}

// SummaryCSV renders the per-metric mean/stddev/CI table. The bytes are a
// pure function of the aggregate, which Replicate computes in seed order —
// so the rendering is identical for every worker count.
func (a *Aggregate) SummaryCSV() ([]byte, error) {
	labels := make([][]string, len(a.Cols))
	rows := make([][]float64, len(a.Cols))
	n := float64(len(a.PerRep))
	for c, col := range a.Cols {
		labels[c] = []string{col}
		rows[c] = []float64{a.Mean[c], a.StdDev[c], a.CI95[c], n}
	}
	var buf bytes.Buffer
	if err := writeCSV(&buf, []string{"metric", "mean", "stddev", "ci95_half", "reps"}, labels, rows); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// PerRepCSV renders one row per replication: rep index, seed (exact int64,
// not a rounded float), then every metric column.
func (a *Aggregate) PerRepCSV() ([]byte, error) {
	labels := make([][]string, len(a.PerRep))
	for i := range a.PerRep {
		labels[i] = []string{strconv.Itoa(i), strconv.FormatInt(a.Seeds[i], 10)}
	}
	var buf bytes.Buffer
	if err := writeCSV(&buf, append([]string{"rep", "seed"}, a.Cols...), labels, a.PerRep); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// WriteCSV exports <name>_summary.csv and <name>_reps.csv into dir.
func (a *Aggregate) WriteCSV(dir string) error {
	sum, err := a.SummaryCSV()
	if err != nil {
		return err
	}
	if err := writeFile(dir, a.Name+"_summary.csv", sum); err != nil {
		return err
	}
	reps, err := a.PerRepCSV()
	if err != nil {
		return err
	}
	return writeFile(dir, a.Name+"_reps.csv", reps)
}

// WriteCSV exports a table result (Table 1 or 2) as <name>.csv.
func (r *TableResult) WriteCSV(dir, name string) error {
	rows := make([][]float64, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = []float64{
			float64(i + 1), row.Budget.Credits(), row.TimeHours,
			row.CostPerH, row.LatencyMin, row.Nodes,
		}
	}
	return writeCSVFile(dir, name,
		[]string{"user", "budget", "time_h", "cost_per_h", "latency_min", "nodes"}, nil, rows)
}
