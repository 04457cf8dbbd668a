package arc

import (
	"errors"
	"testing"
	"time"

	"tycoongrid/internal/bank"
)

func TestCancelRunningJobRefunds(t *testing.T) {
	w := newWorld(t, 2)
	brokerBefore, _ := w.bank.Balance("broker")
	gj, err := w.manager.Submit(w.xrslJob(t, 100, 2, 120, 600), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Let it stage in and run for a while (accruing some charges).
	w.eng.RunFor(30 * time.Minute)
	if gj.State != StateRunning {
		t.Fatalf("state = %v", gj.State)
	}
	charged := gj.AgentJob.Charged
	if charged <= 0 {
		t.Fatal("no charges before cancel")
	}
	if err := w.manager.Cancel(gj.ID); err != nil {
		t.Fatal(err)
	}
	if gj.State != StateKilled {
		t.Errorf("state = %v", gj.State)
	}
	// Money: broker received 100, paid `charged` to earnings, holds refund.
	brokerAfter, _ := w.bank.Balance("broker")
	earnings, _ := w.bank.Balance("grid-earnings")
	if brokerAfter-brokerBefore+earnings != 100*bank.Credit {
		t.Errorf("money leaked: broker delta %v + earnings %v != 100",
			brokerAfter-brokerBefore, earnings)
	}
	if brokerAfter-brokerBefore != 100*bank.Credit-charged {
		t.Errorf("refund = %v, want budget minus charges %v",
			brokerAfter-brokerBefore, 100*bank.Credit-charged)
	}
	// The cluster is quiet: no running VMs (a task runs in one), no bids,
	// no further charges.
	for _, id := range w.manager.cfg.Agent.Cluster().HostIDs() {
		h, _ := w.manager.cfg.Agent.Cluster().Host(id)
		if h.VMs.Running() != 0 || h.Market.Bidders() != 0 {
			t.Errorf("host %s not quiet after cancel: vms=%d bids=%d",
				id, h.VMs.Running(), h.Market.Bidders())
		}
	}
	w.eng.RunFor(time.Hour)
	if gj.AgentJob.Charged != charged {
		t.Errorf("charges continued after cancel: %v -> %v", charged, gj.AgentJob.Charged)
	}
	// Monitor counts it as failed.
	if snap := w.manager.Monitor(); snap.JobsFailed != 1 {
		t.Errorf("monitor = %+v", snap)
	}
}

func TestCancelErrors(t *testing.T) {
	w := newWorld(t, 1)
	if err := w.manager.Cancel("ghost"); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("ghost: %v", err)
	}
	gj, err := w.manager.Submit(w.xrslJob(t, 10, 1, 2, 30), nil)
	if err != nil {
		t.Fatal(err)
	}
	w.eng.RunFor(time.Hour)
	if gj.State != StateFinished {
		t.Fatalf("state = %v", gj.State)
	}
	if err := w.manager.Cancel(gj.ID); err == nil {
		t.Error("cancel of finished job accepted")
	}
	// Double cancel.
	gj2, err := w.manager.Submit(w.xrslJob(t, 10, 1, 60, 300), nil)
	if err != nil {
		t.Fatal(err)
	}
	w.eng.RunFor(5 * time.Minute)
	if err := w.manager.Cancel(gj2.ID); err != nil {
		t.Fatal(err)
	}
	if err := w.manager.Cancel(gj2.ID); err == nil {
		t.Error("double cancel accepted")
	}
}

func TestCancelDuringStageIn(t *testing.T) {
	w := newWorld(t, 1)
	gj, err := w.manager.Submit(w.xrslJob(t, 10, 1, 5, 60), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Still PREPARING (stage-in takes 30 s); cancel before the agent ever
	// sees it. The stage-in callback must then not resurrect it.
	if err := w.manager.Cancel(gj.ID); err != nil {
		t.Fatal(err)
	}
	if gj.State != StateKilled {
		t.Fatalf("state = %v", gj.State)
	}
	w.eng.RunFor(time.Hour)
	if gj.State != StateKilled {
		t.Errorf("stage-in resurrected a killed job: %v", gj.State)
	}
}
