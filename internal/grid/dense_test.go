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
// the agent's own — each charge is booked on its job's tab, and reaches the
// world's bank when the job's escrow is released.
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

// checkTickTelemetry checks the registry delta of one tick that ran clears
// clears: every clear counted once, every phase observed once.
func checkTickTelemetry(t *testing.T, d metrics.Snapshot, clears int) {
	t.Helper()
	for _, c := range d.Counters {
		if c.Name == "auction_clears_total" && c.Value != uint64(clears) {
			t.Errorf("one tick added %d to auction_clears_total, want its %d clears", c.Value, clears)
		}
	}
	phases := map[string]uint64{}
	for _, h := range d.Histograms {
		if h.Name == "grid_tick_phase_seconds" {
			phases[h.Labels["phase"]] = h.Count
		}
	}
	for _, phase := range []string{"clear", "settle", "advance"} {
		if phases[phase] != 1 {
			t.Errorf("one tick observed grid_tick_phase_seconds{phase=%q} %d times, want once", phase, phases[phase])
		}
	}
	if len(phases) != 3 {
		t.Errorf("grid_tick_phase_seconds has phases %v, want clear, settle and advance", phases)
	}
}

func bankMoves() uint64 {
	for _, c := range metrics.Default().Snapshot().Counters {
		if c.Name == "bank_internal_moves_total" {
			return c.Value
		}
	}
	return 0
}

// charged sums what the agent's jobs have been charged so far.
func charged(w *experiment.World) bank.Amount {
	var sum bank.Amount
	for _, j := range w.Agent.Jobs() {
		sum += j.Charged
	}
	return sum
}

// TestBusyTickAllocationBound gates what a busy host costs a tick in
// allocations, and what it costs the bank — nothing: 300 hosts with 8 bidders
// and 8 tasks each, every bidder a job of the agent's, every charge booked on
// that job's tab. A host's clear allocates nothing: its charges and refunds,
// the mechanism's outcome lines, its shares and its live-bid snapshot reuse
// the market's buffers, the agent's pump and settle's memo of bidders and tab
// rows reuse theirs, nothing is sorted or boxed, and no bank move is made. So
// what a busy tick allocates does not grow with its hosts: it reads 10 for
// the whole 300-host tick (0.033 a host: the engine's timers, the agent's
// pump, the plane's fan-out), under the race detector too, and the bound is
// 0.05 a host, 15 for the tick. It read 2 a host while every clear allocated
// its outcome lines and its charges, and 23 before the book was kept in
// order. The bank
// sees the charges when the jobs' escrows are released: one charge entry per
// (job, host), summing to what the jobs were charged.
//
// It also counts what the tick's telemetry costs: the tick is timed once per
// pass, not once per clear, so one busy tick adds exactly its 300 clears to
// auction_clears_total and exactly one observation to each
// grid_tick_phase_seconds{phase}.
func TestBusyTickAllocationBound(t *testing.T) {
	const hosts, maxPerHost = 300, 0.05
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
	// One tick makes 8 charges a host if every row of every job's tab grows
	// (a job has a row for each of its 8 hosts); the steady state then charges
	// the same sum every tick, so 51 ticks that charge 51 times that are 51
	// busy ticks.
	rows := func() (out []bank.Amount) {
		for _, j := range w.Agent.Jobs() {
			for _, hc := range j.ChargedByHost() {
				out = append(out, hc.Charged)
			}
		}
		return out
	}
	before, rowsBefore := charged(w), rows()
	snap := metrics.Default().Snapshot()
	w.Engine.RunFor(interval)
	oneTick, rowsAfter := charged(w)-before, rows()
	checkTickTelemetry(t, metrics.Default().Snapshot().Delta(snap), hosts)
	if len(rowsBefore) != 8*hosts || len(rowsAfter) != 8*hosts {
		t.Fatalf("the jobs' tabs hold %d rows, want %d", len(rowsAfter), 8*hosts)
	}
	for i := range rowsAfter {
		if rowsAfter[i] <= rowsBefore[i] {
			t.Fatalf("tab row %d did not grow over a tick: the tick made fewer than %d charges", i, 8*hosts)
		}
	}
	before = charged(w)
	moves := bankMoves()
	perTick := testing.AllocsPerRun(50, func() { w.Engine.RunFor(interval) })
	if got, want := charged(w)-before, 51*oneTick; got != want {
		t.Fatalf("51 ticks charged %v, want %d charges' worth (%v): the tick is not the busy tick", got, 51*8*hosts, want)
	}
	if got := bankMoves() - moves; got != 0 {
		t.Errorf("51 busy ticks made %d bank moves, want 0: a tick books charges, it does not bank them", got)
	}
	if perHost := perTick / hosts; perHost > maxPerHost {
		t.Errorf("busy tick: %.1f allocations per tick, %.3f per busy host, want <= %v", perTick, perHost, maxPerHost)
	} else {
		t.Logf("busy tick: %.1f allocations per tick, %.3f per busy host", perTick, perHost)
	}

	// Release: every job's tab reaches the bank as one charge entry a host.
	total := charged(w)
	for _, j := range w.Agent.Jobs() {
		if err := w.Agent.Cancel(j.ID); err != nil {
			t.Fatal(err)
		}
	}
	if got := bankMoves() - moves; got != uint64(8*hosts+hosts) {
		t.Errorf("cancelling %d jobs made %d bank moves, want %d charges and %d refunds", hosts, got, 8*hosts, hosts)
	}
	entries, banked := 0, bank.Amount(0)
	for _, j := range w.Agent.Jobs() {
		for _, e := range w.Bank.History(j.SubAccount) {
			if e.Kind == bank.EntryCharge {
				entries++
				banked += e.Amount
			}
		}
		if bal, err := w.Bank.Balance(j.SubAccount); err != nil || bal != 0 {
			t.Fatalf("%s: sub-account holds %v after release (%v), want 0", j.ID, bal, err)
		}
	}
	if entries != 8*hosts || banked != total || charged(w) != total {
		t.Errorf("release banked %d charge entries summing to %v, want %d summing to the %v charged", entries, banked, 8*hosts, total)
	}
}
