package grid

import (
	"errors"
	"testing"
	"time"

	"tycoongrid/internal/bank"
)

func TestFailHostKillsTasksAndRefundsBids(t *testing.T) {
	c, eng := testCluster(t, 2)
	deadline := eng.Now().Add(time.Hour)
	if _, err := c.PlaceBid("h00", "alice", 10*bank.Credit, deadline); err != nil {
		t.Fatal(err)
	}
	if _, err := c.PlaceBid("h00", "bob", 5*bank.Credit, deadline); err != nil {
		t.Fatal(err)
	}
	h00, _ := c.Host("h00")
	if err := h00.Market.SetActive("bob", false); err != nil { // bob reserves but does not compute
		t.Fatal(err)
	}
	doneFired := false
	if _, err := c.StartTask("h00", "alice", 3600*2800, func(*Task) { doneFired = true }); err != nil {
		t.Fatal(err)
	}
	eng.RunFor(30 * time.Second) // a few ticks: alice is charged, bob idles

	var seen *HostFailure
	c.OnHostFailure = func(f HostFailure) { seen = &f }
	f, err := c.FailHost("h00")
	if err != nil {
		t.Fatal(err)
	}
	if seen == nil || seen.HostID != "h00" {
		t.Fatalf("OnHostFailure = %+v", seen)
	}
	if len(f.Tasks) != 1 || f.Tasks[0].Owner != "alice" {
		t.Fatalf("killed tasks = %+v", f.Tasks)
	}
	if doneFired {
		t.Error("OnDone fired for a killed task")
	}
	// Both bids refunded; alice paid for 30s of exclusive use, bob was idle
	// so his full 5 credits come back.
	refunds := make(map[string]bank.Amount)
	for _, b := range f.Bids {
		refunds[string(b.Bidder)] = b.Amount
	}
	if refunds["bob"] != 5*bank.Credit {
		t.Errorf("bob refund = %v, want full 5 credits", refunds["bob"])
	}
	if r := refunds["alice"]; r <= 0 || r >= 10*bank.Credit {
		t.Errorf("alice refund = %v, want partial", r)
	}

	h, _ := c.Host("h00")
	if !h.Down() || h.RunningTasks() != 0 || h.VMs.Live() != 0 || h.Market.Bidders() != 0 {
		t.Errorf("host not fully cleared: down=%v tasks=%d vms=%d bidders=%d",
			h.Down(), h.RunningTasks(), h.VMs.Live(), h.Market.Bidders())
	}
}

func TestDownHostRejectsOperations(t *testing.T) {
	c, eng := testCluster(t, 1)
	if _, err := c.FailHost("h00"); err != nil {
		t.Fatal(err)
	}
	deadline := eng.Now().Add(time.Hour)
	if _, err := c.PlaceBid("h00", "alice", bank.Credit, deadline); !errors.Is(err, ErrHostDown) {
		t.Errorf("PlaceBid on down host: %v", err)
	}
	if err := c.Boost("h00", "alice", bank.Credit); !errors.Is(err, ErrHostDown) {
		t.Errorf("Boost on down host: %v", err)
	}
	if _, err := c.StartTask("h00", "alice", 100, nil); !errors.Is(err, ErrHostDown) {
		t.Errorf("StartTask on down host: %v", err)
	}
	if _, err := c.FailHost("h00"); !errors.Is(err, ErrHostDown) {
		t.Errorf("double FailHost: %v", err)
	}
}

func TestRecoverHostResyncsMarketClock(t *testing.T) {
	c, eng := testCluster(t, 1)
	if _, err := c.FailHost("h00"); err != nil {
		t.Fatal(err)
	}
	// A long outage passes. On recovery the market clock must jump to now so
	// a fresh bid is not billed for the outage window at the next tick.
	eng.RunFor(time.Hour)
	if err := c.RecoverHost("h00"); err != nil {
		t.Fatal(err)
	}
	if err := c.RecoverHost("h00"); err == nil {
		t.Error("double RecoverHost accepted")
	}
	deadline := eng.Now().Add(time.Hour)
	if _, err := c.PlaceBid("h00", "alice", 10*bank.Credit, deadline); err != nil {
		t.Fatal(err)
	}
	if _, err := c.StartTask("h00", "alice", 3600*2800, nil); err != nil {
		t.Fatal(err)
	}
	eng.RunFor(10 * time.Second) // exactly one tick
	h, _ := c.Host("h00")
	remaining, err := h.Market.Remaining("alice")
	if err != nil {
		t.Fatal(err)
	}
	// Bid rate = 10 credits / 1 hour; one 10 s interval of exclusive use must
	// charge ~10s worth, not an hour's worth.
	spent := 10*bank.Credit - remaining
	tickFraction := 10.0 / 3600.0                                          // one 10 s tick of a 1 h bid
	maxExpected := bank.Amount(2 * tickFraction * float64(10*bank.Credit)) // generous 2x bound
	if spent <= 0 || spent > maxExpected {
		t.Errorf("first-tick charge after recovery = %v, want (0, %v]", spent, maxExpected)
	}
}

func TestFailedHostSkippedByTick(t *testing.T) {
	c, eng := testCluster(t, 2)
	deadline := eng.Now().Add(time.Hour)
	if _, err := c.PlaceBid("h01", "alice", 10*bank.Credit, deadline); err != nil {
		t.Fatal(err)
	}
	var done *Task
	if _, err := c.StartTask("h01", "alice", 60*2800, func(t *Task) { done = t }); err != nil {
		t.Fatal(err)
	}
	if _, err := c.FailHost("h00"); err != nil {
		t.Fatal(err)
	}
	// The surviving host still makes progress.
	eng.RunFor(2 * time.Minute)
	if done == nil {
		t.Error("task on surviving host did not finish while h00 was down")
	}
}
