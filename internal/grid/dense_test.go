package grid_test

import (
	"testing"
	"time"

	"tycoongrid/internal/bank"
	"tycoongrid/internal/experiment"
	"tycoongrid/internal/metrics"
	"tycoongrid/internal/tracing"
)

// denseWorld is the grid-dense workload's steady state: hosts hosts, and as
// many of the paper's jobs with 8 endless chunks each, so that Best Response
// leaves every host with 8 live bids and 8 running tasks, every bidder one of
// the agent's own — each charge is a real move on the world's bank.
func denseWorld(tb testing.TB, hosts int) *experiment.World {
	tb.Helper()
	tr := tracing.New(tracing.WithCapacity(8))
	tr.SetSampleRatio(0)
	wc := experiment.PaperWorld()
	wc.Hosts, wc.Users, wc.Tracer = hosts, 1, tr
	wc.GrantPerUser = 1e9 * bank.Credit
	wc.PurgeIdleAfter = 10 * time.Minute
	w, err := experiment.NewWorld(wc)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < hosts; i++ {
		if _, err := w.SubmitApp(w.Users[0], 1e6*bank.Credit, 1e5*time.Hour, 8, 1e15, 8); err != nil {
			tb.Fatal(err)
		}
	}
	return w
}

func bankMoves() uint64 {
	for _, c := range metrics.Default().Snapshot().Counters {
		if c.Name == "bank_internal_moves_total" {
			return c.Value
		}
	}
	return 0
}

// TestBusyTickAllocationBound gates what a busy host costs a tick in
// allocations: 300 hosts with 8 bidders and 8 tasks each, the agent settling
// every charge on a real bank. A host's clear allocates its outcome lines and
// its charges; its shares, its live-bid snapshot, the tick's bank legs and
// the agent's pump reuse their buffers, nothing is sorted or boxed, and the
// ledger grows in amortised chunks: 2 a host, 3 under the race detector, so
// the bound is 4. Before the book was kept in order and the tick settled in
// one batch this read 23 a host.
func TestBusyTickAllocationBound(t *testing.T) {
	const hosts, maxPerHost = 300, 4
	w := denseWorld(t, hosts)
	interval := w.Cluster.Interval()
	bidders, tasks := 0, 0
	for _, id := range w.Cluster.HostIDs() {
		h, err := w.Cluster.Host(id)
		if err != nil {
			t.Fatal(err)
		}
		bidders += h.Market.Bidders()
		tasks += h.RunningTasks()
	}
	if bidders != 8*hosts || tasks != 8*hosts {
		t.Fatalf("%d hosts hold %d bids and %d tasks, want 8 each a host", hosts, bidders, tasks)
	}
	for i := 0; i < 50; i++ { // warm: VMs boot, scratch buffers reach their size
		w.Engine.RunFor(interval)
	}
	moves := bankMoves()
	perTick := testing.AllocsPerRun(50, func() { w.Engine.RunFor(interval) })
	if got := bankMoves() - moves; got != 51*8*hosts {
		t.Fatalf("51 ticks made %d bank moves, want %d: the tick is not the busy tick", got, 51*8*hosts)
	}
	if perHost := perTick / hosts; perHost > maxPerHost {
		t.Errorf("busy tick: %.1f allocations per tick, %.2f per busy host, want <= %d", perTick, perHost, maxPerHost)
	} else {
		t.Logf("busy tick: %.1f allocations per tick, %.2f per busy host", perTick, perHost)
	}
}
