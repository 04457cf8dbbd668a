package agent

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"tycoongrid/internal/grid"
	"tycoongrid/internal/token"
	"tycoongrid/internal/tracing"
)

// TestSubmissionReadsNoBalance: a submission reads no balance, sampled or
// not. The job's timeline shows escrow as the budget net of the charges, both
// of which the job keeps, so nothing recorded at funding asks the bank — and
// the tracer's sampling cannot change what a submission does.
func TestSubmissionReadsNoBalance(t *testing.T) {
	w := newWorld(t, 4)
	tr := tracing.Default()
	defer tr.SetSampleRatio(tr.SampleRatio())
	for _, ratio := range []float64{0, 1} {
		tr.SetSampleRatio(ratio)
		job, err := w.agent.Submit(w.payToken(t, 100), request(2, 2*time.Hour), chunks(2, 10))
		if err != nil {
			t.Fatal(err)
		}
		if w.ledger.balanceReads != 0 {
			t.Errorf("submission at sampling %v read a balance %d times, want 0", ratio, w.ledger.balanceReads)
		}
		events, _ := w.agent.Timeline(job)
		if len(events) < 2 || events[1].Name != "funded" || events[1].Attrs[2] != tracing.String("escrow", "100") {
			t.Errorf("sampling %v: timeline starts %+v, want a funded event with escrow 100", ratio, events)
		}
	}
}

// TestSubmitAllocationBound gates what a submission costs on a wide idle
// grid: nothing per host. The first, into 10 000 sleeping hosts of one
// capacity, hands Best Response one run for all of them (at most two are
// allowed). The next twenty come back to back with no tick between, each
// finding the hosts the earlier ones woke: the candidates are those awake
// hosts and the runs between them, the optimizer keys runs, and only the
// hosts that get a bid become allocations. They allocate ≈ 19.8 KB each, most
// of it the bank, the job and its tasks; one Host per candidate alone would
// be 400 KB.
func TestSubmitAllocationBound(t *testing.T) {
	const hosts, submissions, maxBytes, maxRuns = 10000, 20, 24 << 10, 2
	specs := make([]grid.HostSpec, hosts)
	for i := range specs {
		specs[i] = grid.HostSpec{ID: fmt.Sprintf("h%05d", i), CPUs: 2, CPUMHz: 2800, MaxVMs: 30}
	}
	w := newWorldOf(t, specs)
	w.eng.RunFor(3 * w.cluster.Interval()) // every market clears once and sleeps
	toks := make([]token.Token, submissions+1)
	for i := range toks {
		toks[i] = w.payToken(t, 50)
	}
	submit := func(tok token.Token) {
		job, err := w.agent.Submit(tok, request(8, 2*time.Hour), chunks(8, 10))
		if err != nil {
			t.Fatal(err)
		}
		if len(job.Hosts) != 8 {
			t.Fatalf("funded %d hosts, want 8", len(job.Hosts))
		}
	}
	submit(toks[0])
	if n := len(w.agent.runs); n > maxRuns {
		t.Errorf("a submission into %d sleeping hosts handed Best Response %d runs, want <= %d", hosts, n, maxRuns)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, tok := range toks[1:] {
		submit(tok)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / submissions; per > maxBytes {
		t.Errorf("%d B allocated per submission into %d mostly sleeping hosts, want <= %d", per, hosts, maxBytes)
	}
}
