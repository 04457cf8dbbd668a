package agent

import (
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"tycoongrid/internal/auction"
	"tycoongrid/internal/bank"
)

func TestHostFailureResubmitsChunks(t *testing.T) {
	// 4 chunks on 4 hosts; one host dies mid-run. Its chunk must be
	// re-queued and the job must still finish on the survivors.
	w := newWorld(t, 4)
	job, err := w.agent.Submit(w.payToken(t, 100), request(4, 8*time.Hour), chunks(4, 30))
	if err != nil {
		t.Fatal(err)
	}
	if len(job.Hosts) != 4 {
		t.Fatalf("hosts = %v, want all four funded", job.Hosts)
	}
	w.eng.RunFor(10 * time.Minute)
	victim := job.Hosts[0]
	if _, err := w.cluster.FailHost(victim); err != nil {
		t.Fatal(err)
	}
	// The failed host leaves the placement immediately.
	for _, h := range job.Hosts {
		if h == victim {
			t.Fatalf("failed host %s still in placement %v", victim, job.Hosts)
		}
	}
	w.eng.RunFor(8 * time.Hour)
	if job.State != StateDone {
		t.Fatalf("job = %v (%d/%d), want done despite host failure",
			job.State, job.Completed(), job.Total())
	}
	// The killed chunk shows up as a Failed sub-job record plus a fresh
	// successful resubmission.
	var failed, done int
	for _, s := range job.SubJobs {
		if s.Failed {
			failed++
		}
		if !s.Done.IsZero() {
			done++
		}
	}
	if failed == 0 {
		t.Error("no sub-job marked Failed after host crash")
	}
	if done != job.Total() {
		t.Errorf("done sub-jobs = %d, want %d", done, job.Total())
	}
}

func TestHostFailureMovesEscrowToSurvivor(t *testing.T) {
	// Two funded hosts; one dies. The freed escrow is re-bid onto the
	// survivor, so the survivor's bid budget grows.
	w := newWorld(t, 2)
	job, err := w.agent.Submit(w.payToken(t, 60), request(2, 6*time.Hour), chunks(4, 30))
	if err != nil {
		t.Fatal(err)
	}
	if len(job.Hosts) != 2 {
		t.Fatalf("hosts = %v", job.Hosts)
	}
	w.eng.RunFor(5 * time.Minute)
	survivor := job.Hosts[1]
	h, err := w.cluster.Host(survivor)
	if err != nil {
		t.Fatal(err)
	}
	before := hostBudget(t, h.Market.Shares(), job)
	if _, err := w.cluster.FailHost(job.Hosts[0]); err != nil {
		t.Fatal(err)
	}
	after := hostBudget(t, h.Market.Shares(), job)
	if after <= before {
		t.Errorf("survivor budget %v -> %v, want boosted by freed escrow", before, after)
	}
	if got := []string{survivor}; len(job.Hosts) != 1 || job.Hosts[0] != got[0] {
		t.Errorf("placement after failover = %v, want %v", job.Hosts, got)
	}
}

// TestFailoverOntoOwnDryHostListsItOnce: the cheapest live host can be one of
// the job's own whose bid the market dropped. The freed escrow is placed there
// as a fresh bid and the host stays listed once — Boost weighs job.Hosts by
// index, and the tab has one row a host.
func TestFailoverOntoOwnDryHostListsItOnce(t *testing.T) {
	w := newWorld(t, 3)
	job, err := w.agent.Submit(w.payToken(t, 60), request(3, 6*time.Hour), chunks(3, 30))
	if err != nil {
		t.Fatal(err)
	}
	if len(job.Hosts) != 3 {
		t.Fatalf("hosts = %v", job.Hosts)
	}
	w.eng.RunFor(5 * time.Minute)
	victim, dry, other := job.Hosts[0], job.Hosts[1], job.Hosts[2]
	h, err := w.cluster.Host(dry)
	if err != nil {
		t.Fatal(err)
	}
	bidder := auction.BidderID(job.SubAccount)
	if _, err := h.Market.CancelBid(bidder); err != nil {
		t.Fatal(err)
	}
	w.eng.RunFor(10 * time.Second) // the next clear prices the emptied market
	if got := w.agent.cheapestLiveHost(); got != dry {
		t.Fatalf("cheapest live host = %s, want the bidless %s", got, dry)
	}
	if _, err := w.cluster.FailHost(victim); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Market.Remaining(bidder); err != nil {
		t.Errorf("freed escrow was not re-bid on %s: %v", dry, err)
	}
	if want := []string{dry, other}; !slices.Equal(job.Hosts, want) {
		t.Errorf("placement after failover = %v, want %v", job.Hosts, want)
	}
}

func TestAllHostsFailedRefundsAndFiresOnEnd(t *testing.T) {
	w := newWorld(t, 1)
	brokerBefore, _ := w.bank.Balance("broker")
	job, err := w.agent.Submit(w.payToken(t, 40), request(1, 6*time.Hour), chunks(4, 30))
	if err != nil {
		t.Fatal(err)
	}
	var failNotified bool
	job.OnEnd = func(j *Job) {
		if j != job || j.State != StateFailed {
			t.Errorf("OnEnd fired with job %s in state %v, want %s failed", j.ID, j.State, job.ID)
		}
		failNotified = true
	}
	w.eng.RunFor(15 * time.Minute)
	charged := job.Charged
	if charged <= 0 {
		t.Fatal("no charges accrued before failure")
	}
	if _, err := w.cluster.FailHost("h00"); err != nil {
		t.Fatal(err)
	}
	if job.State != StateFailed {
		t.Fatalf("state = %v, want failed (only host died)", job.State)
	}
	if !failNotified {
		t.Error("OnEnd did not fire")
	}
	if job.FailReason != "all funded hosts failed" {
		t.Errorf("reason = %q", job.FailReason)
	}
	// Exactly the unspent budget comes back to the broker.
	brokerAfter, _ := w.bank.Balance("broker")
	if got, want := brokerAfter-brokerBefore, 40*bank.Credit-charged; got != want {
		t.Errorf("refund = %v, want %v (budget minus charges)", got, want)
	}
	subBal, err := w.bank.Balance(job.SubAccount)
	if err != nil || subBal != 0 {
		t.Errorf("sub-account = %v (%v), want drained", subBal, err)
	}
	// The dead placement accrues nothing further.
	w.eng.RunFor(time.Hour)
	if job.Charged != charged {
		t.Errorf("charges after failure: %v -> %v", charged, job.Charged)
	}
}

func TestDeadlineExceededFailsJob(t *testing.T) {
	// Far more work than one dual-CPU host can finish in the walltime: the
	// pump must fail the job at the deadline and refund the rest.
	w := newWorld(t, 1)
	brokerBefore, _ := w.bank.Balance("broker")
	job, err := w.agent.Submit(w.payToken(t, 30), request(1, 30*time.Minute), chunks(8, 60))
	if err != nil {
		t.Fatal(err)
	}
	w.eng.RunFor(2 * time.Hour)
	if job.State != StateFailed {
		t.Fatalf("state = %v (%d/%d), want failed at deadline",
			job.State, job.Completed(), job.Total())
	}
	if !strings.Contains(job.FailReason, "deadline") {
		t.Errorf("reason = %q", job.FailReason)
	}
	brokerAfter, _ := w.bank.Balance("broker")
	if got, want := brokerAfter-brokerBefore, 30*bank.Credit-job.Charged; got != want {
		t.Errorf("refund = %v, want %v", got, want)
	}
}

func TestCancelAfterHostFailureRefundsUnspent(t *testing.T) {
	// Regression: cancelling a job whose host already failed must refund
	// exactly the unspent amount — the failed-over escrow is not lost and
	// not double-counted.
	w := newWorld(t, 2)
	brokerBefore, _ := w.bank.Balance("broker")
	job, err := w.agent.Submit(w.payToken(t, 60), request(2, 6*time.Hour), chunks(4, 30))
	if err != nil {
		t.Fatal(err)
	}
	w.eng.RunFor(10 * time.Minute)
	if _, err := w.cluster.FailHost(job.Hosts[0]); err != nil {
		t.Fatal(err)
	}
	w.eng.RunFor(5 * time.Minute)
	charged := job.Charged
	if err := w.agent.Cancel(job.ID); err != nil {
		t.Fatal(err)
	}
	if job.State != StateFailed {
		t.Fatalf("state = %v", job.State)
	}
	brokerAfter, _ := w.bank.Balance("broker")
	if got, want := brokerAfter-brokerBefore, 60*bank.Credit-charged; got != want {
		t.Errorf("refund after fail+cancel = %v, want %v", got, want)
	}
	subBal, err := w.bank.Balance(job.SubAccount)
	if err != nil || subBal != 0 {
		t.Errorf("sub-account = %v (%v), want drained", subBal, err)
	}
}

// hostBudget sums the job's remaining bid budget on one market's shares.
func hostBudget(t *testing.T, shares []auction.Share, job *Job) bank.Amount {
	t.Helper()
	var sum bank.Amount
	for _, s := range shares {
		if s.Bidder == auction.BidderID(job.SubAccount) {
			sum += s.Remaining
		}
	}
	return sum
}

// TestFailoverKeepsTheLostHostsTabRow: a host that charged a job and then
// died leaves job.Hosts, but what it charged stays on the job's books — the
// per-host breakdown still sums to Charged, the unbanked gauge still counts
// it, and the dead host is paid with the others when the job ends.
func TestFailoverKeepsTheLostHostsTabRow(t *testing.T) {
	w := newWorld(t, 3)
	// The gauge is the process's and moves by float deltas: other tests'
	// abandoned worlds are in it, so read it against where it started.
	start := mUnbanked.Value()
	unbanked := func() float64 { return mUnbanked.Value() - start }
	job, err := w.agent.Submit(w.payToken(t, 60), request(3, 8*time.Hour), chunks(3, 60))
	if err != nil {
		t.Fatal(err)
	}
	w.eng.RunFor(10 * time.Minute)
	victim := job.Hosts[0]
	if _, err := w.cluster.FailHost(victim); err != nil {
		t.Fatal(err)
	}
	w.eng.RunFor(10 * time.Minute)
	var sum, lost bank.Amount
	for _, hc := range job.ChargedByHost() {
		sum += hc.Charged
		if hc.Host == victim {
			lost = hc.Charged
		}
	}
	if lost <= 0 || sum != job.Charged {
		t.Fatalf("by host %v (victim %s charged %v) sums to %v, charged %v", job.ChargedByHost(), victim, lost, sum, job.Charged)
	}
	if got := unbanked(); math.Abs(got-job.Charged.Credits()) > 1e-9 {
		t.Errorf("agent_unbanked_credits rose by %v with one job charged %v running", got, job.Charged)
	}
	if earned := w.bank.History("grid-earnings"); len(earned) != 0 {
		t.Errorf("the bank heard of %d charges before the job ended", len(earned))
	}
	w.eng.RunFor(8 * time.Hour)
	if job.State != StateDone {
		t.Fatalf("job = %v, want done on the survivors", job.State)
	}
	if got := unbanked(); math.Abs(got) > 1e-9 {
		t.Errorf("agent_unbanked_credits is %v above where it started with no job running", got)
	}
	var paid bank.Amount
	for _, e := range w.bank.History("grid-earnings") {
		if e.Memo == "cpu "+victim {
			paid += e.Amount
		}
	}
	if paid != lost {
		t.Errorf("the dead host was paid %v at the job's end, it had charged %v", paid, lost)
	}
}
