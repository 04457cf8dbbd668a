// Bioinformatics: the paper's pilot application end to end (§5).
//
// Part 1 actually runs the science on this machine: it synthesizes a small
// proteome, runs the sliding-window similarity scan for a query protein, and
// reports the regions with the highest and lowest similarity to the rest of
// the proteome — the application's stated goal.
//
// Part 2 runs the paper's §5.3 market experiment: five users submit the same
// bag-of-tasks proteome scan to a 30-host Tycoon grid with two-point funding
// (100, 100, 500, 500, 500 credits) and a 5.5 h deadline, demonstrating that
// transfer-token funding buys differentiated quality of service.
//
// Run with:  go run ./examples/bioinformatics
package main

import (
	"fmt"
	"log"
	"time"

	"tycoongrid/internal/experiment"
	"tycoongrid/internal/rng"
	"tycoongrid/internal/workload"
)

func main() {
	runScience()
	runMarketExperiment()
}

// runScience executes a real (scaled-down) proteome scan in-process.
func runScience() {
	fmt.Println("== Part 1: sliding-window proteome similarity scan ==")
	src := rng.New(42)
	db, err := workload.GenerateProteome(src, 60, 120, 400)
	if err != nil {
		log.Fatal(err)
	}
	var residues int
	for _, p := range db {
		residues += len(p.Seq)
	}
	fmt.Printf("synthetic proteome: %d proteins, %d residues\n", len(db), residues)

	query := db[7]
	start := time.Now()
	reports, err := workload.ScanProtein(query, db, 25, 10)
	if err != nil {
		log.Fatal(err)
	}
	high, low, err := workload.Extremes(reports)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("scanned %s (%d residues) in %d windows (%.0f ms)\n",
		query.ID, len(query.Seq), len(reports), time.Since(start).Seconds()*1000)
	fmt.Printf("  most similar region:  offset %d, score %d\n", high.Offset, high.Score)
	fmt.Printf("  least similar region: offset %d, score %d\n", low.Offset, low.Score)

	// The full human proteome would be partitioned into chunks that each
	// take ~212 minutes on one node; show the partitioning.
	chunks, err := workload.Chunks(db, 15, workload.PaperChunkDuration)
	if err != nil {
		log.Fatal(err)
	}
	lo, hi := residues, 0
	for _, c := range chunks {
		mass := 0
		for _, p := range c.Proteins {
			mass += len(p.Seq)
		}
		lo, hi = min(lo, mass), max(hi, mass)
	}
	app, err := workload.NewApplication(len(chunks), workload.PaperChunkDuration)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("grid run: %d chunks of %v, %d to %d residues each; ideal on 15 nodes: %v\n\n",
		len(chunks), workload.PaperChunkDuration, lo, hi, app.IdealDuration(15))
}

// runMarketExperiment reproduces the two-point funding table.
func runMarketExperiment() {
	fmt.Println("== Part 2: five competing users on the Tycoon grid (paper Table 2) ==")
	p := experiment.Table2Params()
	res, err := experiment.RunBestResponseTable(p)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res)

	fmt.Println("\nper-user details:")
	for _, r := range res.Rows {
		fmt.Printf("  %-6s budget %4s: %2d/%2d sub-jobs, %.2f h, %.1f min/job, %.0f nodes\n",
			r.User, r.Budget, r.Completed, r.Total, r.TimeHours, r.LatencyMin, r.Nodes)
	}
	hi := res.Groups[len(res.Groups)-1]
	lo := res.Groups[0]
	fmt.Printf("\nQoS differentiation: %.0fx funding bought %.1fx better latency at %.1fx the cost rate\n",
		hi.Budget.Credits()/lo.Budget.Credits(),
		lo.LatencyMin/hi.LatencyMin, hi.CostPerH/lo.CostPerH)
}
