package grid

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"tycoongrid/internal/auction"
	"tycoongrid/internal/bank"
	"tycoongrid/internal/marketplane"
	"tycoongrid/internal/mathx"
	"tycoongrid/internal/sim"
)

// testCluster builds a cluster of n dual-CPU 2800 MHz hosts with no
// virtualization overheads (so arithmetic in tests is exact).
func testCluster(t *testing.T, n int) (*Cluster, *sim.Engine) {
	t.Helper()
	eng := sim.NewEngine()
	specs := make([]HostSpec, n)
	for i := range specs {
		specs[i] = HostSpec{ID: fmt.Sprintf("h%02d", i), CPUs: 2, CPUMHz: 2800, MaxVMs: 30}
	}
	c, err := New(eng, Config{Hosts: specs})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	return c, eng
}

func TestNewValidation(t *testing.T) {
	eng := sim.NewEngine()
	if _, err := New(nil, Config{Hosts: []HostSpec{{ID: "h", CPUs: 1, CPUMHz: 100}}}); err == nil {
		t.Error("nil engine accepted")
	}
	if _, err := New(eng, Config{}); !errors.Is(err, ErrBadSpec) {
		t.Error("no hosts accepted")
	}
	if _, err := New(eng, Config{Hosts: []HostSpec{{ID: "", CPUs: 1, CPUMHz: 100}}}); !errors.Is(err, ErrBadSpec) {
		t.Error("empty id accepted")
	}
	dup := []HostSpec{{ID: "h", CPUs: 1, CPUMHz: 100}, {ID: "h", CPUs: 1, CPUMHz: 100}}
	if _, err := New(eng, Config{Hosts: dup}); !errors.Is(err, ErrBadSpec) {
		t.Error("duplicate id accepted")
	}
}

func TestDoubleStartRefused(t *testing.T) {
	c, _ := testCluster(t, 1)
	if err := c.Start(); err == nil {
		t.Error("double start accepted")
	}
}

func TestSingleTaskFullSpeed(t *testing.T) {
	c, eng := testCluster(t, 1)
	deadline := eng.Now().Add(2 * time.Hour)
	if _, err := c.PlaceBid("h00", "alice", 10*bank.Credit, deadline); err != nil {
		t.Fatal(err)
	}
	// One single-threaded task: capped at one CPU (2800 MHz) even with a
	// 100% share of the 5600 MHz host. Work = 10 minutes at one CPU.
	work := 600 * 2800.0
	var done *Task
	if _, err := c.StartTask("h00", "alice", work, func(t *Task) { done = t }); err != nil {
		t.Fatal(err)
	}
	eng.RunFor(11 * time.Minute)
	if done == nil {
		t.Fatal("task did not finish")
	}
	elapsed := done.DoneAt.Sub(sim.Epoch)
	if !mathx.AlmostEqual(elapsed.Seconds(), 600, 1) {
		t.Errorf("task took %v, want ~10min (one-CPU cap)", elapsed)
	}
}

func TestDualCPUNoCompetition(t *testing.T) {
	c, eng := testCluster(t, 1)
	deadline := eng.Now().Add(2 * time.Hour)
	// Two users with equal bids on a dual-CPU host: each gets a 50% share
	// = 2800 MHz = one full CPU. Both finish as fast as running alone.
	for _, u := range []auction.BidderID{"u1", "u2"} {
		if _, err := c.PlaceBid("h00", u, 10*bank.Credit, deadline); err != nil {
			t.Fatal(err)
		}
	}
	work := 600 * 2800.0
	var times []time.Duration
	for _, u := range []auction.BidderID{"u1", "u2"} {
		if _, err := c.StartTask("h00", u, work, func(t *Task) {
			times = append(times, t.DoneAt.Sub(sim.Epoch))
		}); err != nil {
			t.Fatal(err)
		}
	}
	eng.RunFor(11 * time.Minute)
	if len(times) != 2 {
		t.Fatalf("finished %d tasks", len(times))
	}
	for i, d := range times {
		if !mathx.AlmostEqual(d.Seconds(), 600, 1) {
			t.Errorf("task %d took %v, want ~10min (no CPU competition)", i, d)
		}
	}
}

func TestThreeUsersCompeteOnDualCPU(t *testing.T) {
	c, eng := testCluster(t, 1)
	deadline := eng.Now().Add(4 * time.Hour)
	// Three equal bidders on 2 CPUs: share = 1/3 of 5600 = 1866.7 MHz < one
	// CPU, so everyone runs below full speed.
	work := 600 * 2800.0
	n := 0
	for _, u := range []auction.BidderID{"u1", "u2", "u3"} {
		if _, err := c.PlaceBid("h00", u, 10*bank.Credit, deadline); err != nil {
			t.Fatal(err)
		}
		if _, err := c.StartTask("h00", u, work, func(task *Task) {
			n++
			elapsed := task.DoneAt.Sub(sim.Epoch).Seconds()
			if !mathx.AlmostEqual(elapsed, 900, 15) { // 600 * 3/2
				t.Errorf("task took %vs, want ~900s", elapsed)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	eng.RunFor(20 * time.Minute)
	if n != 3 {
		t.Fatalf("finished %d tasks", n)
	}
}

func TestProportionalProgress(t *testing.T) {
	c, eng := testCluster(t, 1)
	deadline := eng.Now().Add(4 * time.Hour)
	// u1 bids 3x u2: on 2 CPUs u1's share is 75% (4200 MHz) capped at 2800,
	// u2 gets 25% = 1400 MHz.
	if _, err := c.PlaceBid("h00", "u1", 30*bank.Credit, deadline); err != nil {
		t.Fatal(err)
	}
	if _, err := c.PlaceBid("h00", "u2", 10*bank.Credit, deadline); err != nil {
		t.Fatal(err)
	}
	work := 600 * 2800.0
	var tRich, tPoor time.Duration
	if _, err := c.StartTask("h00", "u1", work, func(t *Task) { tRich = t.DoneAt.Sub(sim.Epoch) }); err != nil {
		t.Fatal(err)
	}
	if _, err := c.StartTask("h00", "u2", work, func(t *Task) { tPoor = t.DoneAt.Sub(sim.Epoch) }); err != nil {
		t.Fatal(err)
	}
	eng.RunFor(40 * time.Minute)
	if tRich == 0 || tPoor == 0 {
		t.Fatal("tasks did not finish")
	}
	if !mathx.AlmostEqual(tRich.Seconds(), 600, 11) {
		t.Errorf("rich task %v, want ~600s (capped at one CPU)", tRich)
	}
	if !mathx.AlmostEqual(tPoor.Seconds(), 1200, 15) {
		t.Errorf("poor task %v, want ~1200s (1400 MHz)", tPoor)
	}
}

func TestVMOverheadDelaysStart(t *testing.T) {
	eng := sim.NewEngine()
	c, err := New(eng, Config{Hosts: []HostSpec{{
		ID: "h", CPUs: 1, CPUMHz: 1000, MaxVMs: 5,
		CreateOverhead: 2 * time.Minute,
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.PlaceBid("h", "u", 10*bank.Credit, eng.Now().Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	var done *Task
	if _, err := c.StartTask("h", "u", 600*1000, func(t *Task) { done = t }); err != nil {
		t.Fatal(err)
	}
	eng.RunFor(15 * time.Minute)
	if done == nil {
		t.Fatal("task did not finish")
	}
	elapsed := done.DoneAt.Sub(sim.Epoch).Seconds()
	if !mathx.AlmostEqual(elapsed, 720, 11) { // 120s boot + 600s compute
		t.Errorf("elapsed = %vs, want ~720s (boot overhead included)", elapsed)
	}
}

// eachSettled adapts per-charge and per-refund callbacks (either may be nil)
// to OnSettle: every cleared host's charges, then its refunds, in host order.
func eachSettled(charge, refund func(host string, ch auction.Charge)) func([]marketplane.TickResult) {
	return func(cleared []marketplane.TickResult) {
		for _, r := range cleared {
			for _, ch := range r.Charges {
				if charge != nil {
					charge(r.Host, ch)
				}
			}
			for _, rf := range r.Refunds {
				if refund != nil {
					refund(r.Host, rf)
				}
			}
		}
	}
}

func TestChargesFlowThroughCallback(t *testing.T) {
	c, eng := testCluster(t, 1)
	var charged bank.Amount
	var refunded bank.Amount
	c.OnSettle = eachSettled(func(host string, ch auction.Charge) {
		if host != "h00" || ch.Bidder != "u" {
			t.Errorf("unexpected charge %v on %s", ch, host)
		}
		charged += ch.Amount
	}, func(host string, ch auction.Charge) { refunded += ch.Amount })
	deadline := eng.Now().Add(10 * time.Minute)
	if _, err := c.PlaceBid("h00", "u", 10*bank.Credit, deadline); err != nil {
		t.Fatal(err)
	}
	// Long task: runs the full 10 minutes, consuming the whole budget.
	if _, err := c.StartTask("h00", "u", 1e12, nil); err != nil {
		t.Fatal(err)
	}
	eng.RunFor(20 * time.Minute)
	if charged+refunded != 10*bank.Credit {
		t.Errorf("charged %v + refunded %v != budget", charged, refunded)
	}
	if charged != 10*bank.Credit {
		t.Errorf("active task should consume the full budget, charged %v", charged)
	}
}

func TestIdleOwnerRefundedNotCharged(t *testing.T) {
	c, eng := testCluster(t, 1)
	var charged, refunded bank.Amount
	c.OnSettle = eachSettled(func(string, auction.Charge) { t.Error("idle bidder charged") },
		func(_ string, ch auction.Charge) { refunded += ch.Amount })
	_ = charged
	deadline := eng.Now().Add(5 * time.Minute)
	if _, err := c.PlaceBid("h00", "idle", 10*bank.Credit, deadline); err != nil {
		t.Fatal(err)
	}
	h, _ := c.Host("h00")
	if err := h.Market.SetActive("idle", false); err != nil {
		t.Fatal(err)
	}
	eng.RunFor(10 * time.Minute)
	if refunded != 10*bank.Credit {
		t.Errorf("refund = %v, want full budget back", refunded)
	}
}

func TestTaskCompletionFreesVMAndDeactivates(t *testing.T) {
	c, eng := testCluster(t, 1)
	deadline := eng.Now().Add(time.Hour)
	if _, err := c.PlaceBid("h00", "u", 36*bank.Credit, deadline); err != nil {
		t.Fatal(err)
	}
	if _, err := c.StartTask("h00", "u", 60*2800, nil); err != nil {
		t.Fatal(err)
	}
	h, _ := c.Host("h00")
	if h.RunningTasks() != 1 {
		t.Fatal("task not registered")
	}
	eng.RunFor(5 * time.Minute)
	if h.RunningTasks() != 0 {
		t.Error("finished task still registered")
	}
	if h.VMs.Running() != 0 || h.VMs.Live() != 1 {
		t.Errorf("vm state: running=%d live=%d", h.VMs.Running(), h.VMs.Live())
	}
	// After completion the owner is inactive: no further charges.
	var lateCharges bank.Amount
	c.OnSettle = eachSettled(func(_ string, ch auction.Charge) { lateCharges += ch.Amount }, nil)
	eng.RunFor(5 * time.Minute)
	if lateCharges != 0 {
		t.Errorf("charged %v after task completion", lateCharges)
	}
}

func TestProgressReporting(t *testing.T) {
	c, eng := testCluster(t, 1)
	if _, err := c.PlaceBid("h00", "u", 100*bank.Credit, eng.Now().Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	task, err := c.StartTask("h00", "u", 600*2800, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng.RunFor(5 * time.Minute)
	if p := progress(task); !mathx.AlmostEqual(p, 0.5, 0.05) {
		t.Errorf("progress = %v, want ~0.5", p)
	}
}

// progress is a task's completed fraction in [0, 1].
func progress(t *Task) float64 { return 1 - t.Work/t.TotalWork }

// RunningTasks returns the number of live tasks on a host.
func (h *Host) RunningTasks() int { return len(h.tasks) }

func TestStartTaskValidation(t *testing.T) {
	c, _ := testCluster(t, 1)
	if _, err := c.StartTask("ghost", "u", 100, nil); !errors.Is(err, ErrUnknownHost) {
		t.Errorf("ghost host: %v", err)
	}
	if _, err := c.StartTask("h00", "u", -1, nil); err == nil {
		t.Error("negative work accepted")
	}
}

func TestBoostSpeedsUpTask(t *testing.T) {
	c, eng := testCluster(t, 1)
	deadline := eng.Now().Add(4 * time.Hour)
	// Three competitors saturate both CPUs; boosting one shifts shares.
	var first *Task
	for _, u := range []auction.BidderID{"a", "b", "c"} {
		if _, err := c.PlaceBid("h00", u, 10*bank.Credit, deadline); err != nil {
			t.Fatal(err)
		}
		task, err := c.StartTask("h00", u, 1200*2800, nil)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = task
		}
	}
	eng.RunFor(2 * time.Minute)
	before := progress(first)
	if err := c.Boost("h00", "a", 100*bank.Credit); err != nil {
		t.Fatal(err)
	}
	eng.RunFor(2 * time.Minute)
	after := progress(first)
	// With the boost, "a" runs at the one-CPU cap; in 2 minutes it should
	// gain clearly more than in the first 2 minutes.
	if after-before <= before {
		t.Errorf("boost ineffective: first window %v, second %v", before, after-before)
	}
	if err := c.Boost("ghost", "a", bank.Credit); !errors.Is(err, ErrUnknownHost) {
		t.Errorf("ghost boost: %v", err)
	}
}

func TestPurgeIdleVMs(t *testing.T) {
	eng := sim.NewEngine()
	c, err := New(eng, Config{
		Hosts:          []HostSpec{{ID: "h", CPUs: 1, CPUMHz: 1000, MaxVMs: 5}},
		PurgeIdleAfter: 5 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.PlaceBid("h", "u", 100*bank.Credit, eng.Now().Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	// A one-minute task leaves an idle VM behind.
	if _, err := c.StartTask("h", "u", 60*1000, nil); err != nil {
		t.Fatal(err)
	}
	eng.RunFor(3 * time.Minute)
	h, _ := c.Host("h")
	if h.VMs.Live() != 1 {
		t.Fatalf("live VMs = %d after task", h.VMs.Live())
	}
	// After the purge horizon the idle VM is destroyed.
	eng.RunFor(10 * time.Minute)
	if h.VMs.Live() != 0 {
		t.Errorf("idle VM not purged: live = %d", h.VMs.Live())
	}
}

func TestHostAccessors(t *testing.T) {
	c, _ := testCluster(t, 3)
	ids := c.HostIDs()
	if len(ids) != 3 || ids[0] != "h00" || ids[2] != "h02" {
		t.Errorf("ids = %v", ids)
	}
	h, err := c.Host("h01")
	if err != nil {
		t.Fatal(err)
	}
	if h.TotalMHz() != 5600 || h.PerCPUMHz() != 2800 {
		t.Errorf("capacities: %v / %v", h.TotalMHz(), h.PerCPUMHz())
	}
	if c.Interval() != auction.DefaultInterval {
		t.Errorf("interval = %v", c.Interval())
	}
}

// TestHostListFollowsOrder pins the invariant the tick and the agent's
// resolved partition rest on: list[i] is the host named order[i], in sorted
// id order, whatever order the specs arrived in ("h10" sorts before "h9").
func TestHostListFollowsOrder(t *testing.T) {
	eng := sim.NewEngine()
	var specs []HostSpec
	for _, i := range []int{9, 100, 10, 0, 11, 1} {
		specs = append(specs, HostSpec{ID: fmt.Sprintf("h%d", i), CPUs: 1, CPUMHz: 1000})
	}
	c, err := New(eng, Config{Hosts: specs})
	if err != nil {
		t.Fatal(err)
	}
	ids := c.HostIDs()
	if want := []string{"h0", "h1", "h10", "h100", "h11", "h9"}; fmt.Sprint(ids) != fmt.Sprint(want) {
		t.Fatalf("HostIDs = %v, want %v", ids, want)
	}
	if len(c.list) != len(ids) {
		t.Fatalf("list holds %d hosts, want %d", len(c.list), len(ids))
	}
	for i, id := range ids {
		h, err := c.Host(id)
		if err != nil || c.list[i] != h || h.Spec.ID != id {
			t.Errorf("list[%d] is not host %q", i, id)
		}
	}
}
