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

// TestUnsampledSubmissionBuildsNoEventAttributes: the lifecycle events'
// attributes — an escrow balance read under the bank's lock, formatted
// amounts and prices — are built only for a span that records them.
func TestUnsampledSubmissionBuildsNoEventAttributes(t *testing.T) {
	w := newWorld(t, 4)
	if _, err := w.agent.Submit(w.payToken(t, 100), request(2, 2*time.Hour), chunks(2, 10)); err != nil {
		t.Fatal(err)
	}
	if w.ledger.balanceReads != 0 {
		t.Errorf("submission with no recording span read a balance %d times, want 0", w.ledger.balanceReads)
	}

	tr := tracing.Default()
	span := tr.StartRemote(tracing.SpanContext{}, "test.submit")
	release := tr.PushScope(span)
	job, err := w.agent.Submit(w.payToken(t, 100), request(2, 2*time.Hour), chunks(2, 10))
	release()
	span.End()
	if err != nil {
		t.Fatal(err)
	}
	if !job.Span.Recording() {
		t.Skip("default tracer is not sampling")
	}
	if w.ledger.balanceReads != 1 {
		t.Errorf("traced submission read a balance %d times, want 1 (the funded event's escrow)", w.ledger.balanceReads)
	}
}

// TestSubmitAllocationBound gates what a submission allocates on a wide idle
// grid: nothing per host. Every one of 10 000 markets is asleep, so the
// candidates are a handful of runs; the candidate slice is the agent's own,
// the optimizer keys runs, and only the hosts that get a bid become
// allocations. One candidate slice alone would be 400 KB.
func TestSubmitAllocationBound(t *testing.T) {
	const hosts, submissions, maxBytes = 10000, 20, 64 << 10
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
	submit(toks[0]) // sizes the candidate slice
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, tok := range toks[1:] {
		submit(tok)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / submissions; per > maxBytes {
		t.Errorf("%d B allocated per submission into %d sleeping hosts, want <= %d", per, hosts, maxBytes)
	}
}
