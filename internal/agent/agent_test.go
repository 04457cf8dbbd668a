package agent

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"tycoongrid/internal/auction"
	"tycoongrid/internal/bank"
	"tycoongrid/internal/grid"
	"tycoongrid/internal/pki"
	"tycoongrid/internal/sim"
	"tycoongrid/internal/token"
	"tycoongrid/internal/workload"
	"tycoongrid/internal/xrsl"
)

// world is a full broker-side fixture: CA, bank, cluster, agent, one user.
type world struct {
	eng      *sim.Engine
	ca       *pki.CA
	bank     *bank.Bank
	ledger   *countingLedger // the agent's view of bank
	cluster  *grid.Cluster
	agent    *Agent
	user     *pki.Identity
	userBank *pki.Identity
	nonce    int
}

// countingLedger counts the balance reads the agent makes.
type countingLedger struct {
	Ledger
	balanceReads int
}

func (l *countingLedger) Balance(id bank.AccountID) (bank.Amount, error) {
	l.balanceReads++
	return l.Ledger.Balance(id)
}

func newWorld(t *testing.T, hosts int) *world {
	t.Helper()
	specs := make([]grid.HostSpec, hosts)
	for i := range specs {
		specs[i] = grid.HostSpec{ID: fmt.Sprintf("h%02d", i), CPUs: 2, CPUMHz: 2800, MaxVMs: 30}
	}
	return newWorldOf(t, specs)
}

func newWorldOf(t *testing.T, specs []grid.HostSpec) *world {
	t.Helper()
	return newWorldClearing(t, specs, "")
}

// newWorldClearing is newWorldOf with every host market clearing by the named
// mechanism ("" is the proportional default).
func newWorldClearing(t *testing.T, specs []grid.HostSpec, mech string) *world {
	t.Helper()
	eng := sim.NewEngine()
	ca, err := pki.NewDeterministicCA("/O=Grid/CN=CA", [32]byte{1}, pki.WithTimeSource(eng.Now))
	if err != nil {
		t.Fatal(err)
	}
	bankID, _ := ca.IssueDeterministic("/CN=Bank", [32]byte{2})
	brokerID, _ := ca.IssueDeterministic("/CN=Broker", [32]byte{3})
	user, _ := ca.IssueDeterministic("/O=Grid/OU=KTH/CN=Alice", [32]byte{4})
	userBank, _ := ca.IssueDeterministic("/CN=AliceBank", [32]byte{5})

	b := bank.New(bankID, eng)
	if _, err := b.CreateAccount("alice", userBank.Public()); err != nil {
		t.Fatal(err)
	}
	if _, err := b.CreateAccount("broker", brokerID.Public()); err != nil {
		t.Fatal(err)
	}
	if err := b.Deposit("alice", 100000*bank.Credit, "grant"); err != nil {
		t.Fatal(err)
	}

	cluster, err := grid.New(eng, grid.Config{Hosts: specs, Mechanism: mech})
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.Start(); err != nil {
		t.Fatal(err)
	}

	v, err := token.NewVerifier(b.PublicKey(), ca.Certificate(), "broker", nil)
	if err != nil {
		t.Fatal(err)
	}
	ledger := &countingLedger{Ledger: b}
	a, err := New(Config{
		Cluster:  cluster,
		Bank:     ledger,
		Identity: brokerID,
		Account:  "broker",
		Verifier: v,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &world{eng: eng, ca: ca, bank: b, ledger: ledger, cluster: cluster, agent: a, user: user, userBank: userBank}
}

// payToken transfers credits to the broker and attaches the user's DN.
func (w *world) payToken(t *testing.T, credits float64) token.Token {
	t.Helper()
	w.nonce++
	amt := bank.MustCredits(credits)
	req := bank.TransferRequest{From: "alice", To: "broker", Amount: amt,
		Nonce: fmt.Sprintf("n%04d", w.nonce)}
	req.Sig = w.userBank.Sign(req.SigningBytes())
	r, err := w.bank.Transfer(req)
	if err != nil {
		t.Fatal(err)
	}
	return token.Attach(r, w.user)
}

// request builds a paper-shaped job request.
func request(count int, deadline time.Duration) *xrsl.JobRequest {
	return &xrsl.JobRequest{
		JobName:    "proteome-scan",
		Executable: "scan.sh",
		Count:      count,
		WallTime:   deadline,
	}
}

// chunks returns n sub-jobs of the given minutes at one reference CPU.
func chunks(n int, minutes float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = minutes * 60 * workload.ReferenceMHz
	}
	return out
}

func TestSubmitRunsJobToCompletion(t *testing.T) {
	w := newWorld(t, 4)
	job, err := w.agent.Submit(w.payToken(t, 100), request(4, 5*time.Hour), chunks(8, 30))
	if err != nil {
		t.Fatal(err)
	}
	if job.State != StateRunning {
		t.Fatalf("state = %v", job.State)
	}
	if len(job.Hosts) == 0 || len(job.Hosts) > 4 {
		t.Fatalf("hosts = %v", job.Hosts)
	}
	w.eng.RunFor(5 * time.Hour)
	if job.State != StateDone {
		t.Fatalf("job did not finish: %d/%d", job.Completed(), job.Total())
	}
	if job.Completed() != 8 {
		t.Errorf("completed = %d", job.Completed())
	}
	if job.Duration() <= 0 || job.MeanLatency() <= 0 {
		t.Errorf("metrics: dur=%v lat=%v", job.Duration(), job.MeanLatency())
	}
	// 8 chunks of 30 min across 4 dual-CPU hosts, alone on the market:
	// each chunk runs at one full CPU -> 2 waves -> ~1 hour.
	if d := job.Duration(); d < 55*time.Minute || d > 70*time.Minute {
		t.Errorf("duration = %v, want ~1h", d)
	}
}

func TestMoneyFlowsAndRefunds(t *testing.T) {
	w := newWorld(t, 2)
	before, _ := w.bank.Balance("alice")
	job, err := w.agent.Submit(w.payToken(t, 50), request(2, 2*time.Hour), chunks(2, 10))
	if err != nil {
		t.Fatal(err)
	}
	w.eng.RunFor(3 * time.Hour)
	if job.State != StateDone {
		t.Fatal("job did not finish")
	}
	if job.Charged <= 0 {
		t.Error("no charges recorded")
	}
	if job.Charged > 50*bank.Credit {
		t.Errorf("charged %v > budget", job.Charged)
	}
	// Sub-account empty after refund.
	subBal, err := w.bank.Balance(job.SubAccount)
	if err != nil || subBal != 0 {
		t.Errorf("sub-account balance = %v (%v)", subBal, err)
	}
	// Broker holds the refund; earnings account holds the charges; money
	// is conserved.
	brokerBal, _ := w.bank.Balance("broker")
	earnBal, _ := w.bank.Balance("grid-earnings")
	if earnBal != job.Charged {
		t.Errorf("earnings %v != charged %v", earnBal, job.Charged)
	}
	if brokerBal != 50*bank.Credit-job.Charged {
		t.Errorf("broker refund balance = %v", brokerBal)
	}
	aliceBal, _ := w.bank.Balance("alice")
	if before-aliceBal != 50*bank.Credit {
		t.Errorf("alice paid %v", before-aliceBal)
	}
}

func TestTokenDoubleSpendAcrossJobs(t *testing.T) {
	w := newWorld(t, 2)
	tok := w.payToken(t, 20)
	if _, err := w.agent.Submit(tok, request(1, time.Hour), chunks(1, 5)); err != nil {
		t.Fatal(err)
	}
	if _, err := w.agent.Submit(tok, request(1, time.Hour), chunks(1, 5)); err == nil {
		t.Error("reused token accepted")
	}
}

func TestCountCapsHosts(t *testing.T) {
	w := newWorld(t, 8)
	job, err := w.agent.Submit(w.payToken(t, 200), request(3, 4*time.Hour), chunks(6, 20))
	if err != nil {
		t.Fatal(err)
	}
	if len(job.Hosts) > 3 {
		t.Errorf("funded %d hosts, count=3", len(job.Hosts))
	}
	w.eng.RunFor(4 * time.Hour)
	if job.NodesUsed() > 3 {
		t.Errorf("used %d nodes, count=3", job.NodesUsed())
	}
	if job.State != StateDone {
		t.Error("job did not finish")
	}
}

func TestBoostShortensCompetingJob(t *testing.T) {
	// Two identical competing jobs on one dual-CPU host pair; boosting the
	// second should make it finish sooner than an unboosted twin run.
	run := func(boost bool) time.Duration {
		w := newWorld(t, 1)
		j1, err := w.agent.Submit(w.payToken(t, 50), request(1, 6*time.Hour), chunks(3, 30))
		if err != nil {
			t.Fatal(err)
		}
		j2, err := w.agent.Submit(w.payToken(t, 50), request(1, 6*time.Hour), chunks(3, 30))
		if err != nil {
			t.Fatal(err)
		}
		// A third competitor makes CPU scarce (3 users, 2 CPUs).
		j3, err := w.agent.Submit(w.payToken(t, 50), request(1, 6*time.Hour), chunks(3, 30))
		if err != nil {
			t.Fatal(err)
		}
		_, _ = j1, j3
		w.eng.RunFor(10 * time.Minute)
		if boost {
			if err := w.agent.Boost(j2.ID, w.payToken(t, 500)); err != nil {
				t.Fatal(err)
			}
		}
		w.eng.RunFor(8 * time.Hour)
		if j2.State != StateDone {
			t.Fatalf("job 2 unfinished (boost=%v)", boost)
		}
		return j2.Duration()
	}
	plain := run(false)
	boosted := run(true)
	if boosted >= plain {
		t.Errorf("boosted %v >= plain %v", boosted, plain)
	}
}

func TestBoostValidation(t *testing.T) {
	w := newWorld(t, 1)
	if err := w.agent.Boost("nope", w.payToken(t, 1)); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("unknown job: %v", err)
	}
	job, err := w.agent.Submit(w.payToken(t, 10), request(1, time.Hour), chunks(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	w.eng.RunFor(time.Hour)
	if job.State != StateDone {
		t.Fatal("job did not finish")
	}
	if err := w.agent.Boost(job.ID, w.payToken(t, 1)); !errors.Is(err, ErrJobDone) {
		t.Errorf("done job boost: %v", err)
	}
	// Reused boost token.
	tok := w.payToken(t, 5)
	job2, err := w.agent.Submit(w.payToken(t, 10), request(1, time.Hour), chunks(2, 30))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.agent.Boost(job2.ID, tok); err != nil {
		t.Fatal(err)
	}
	if err := w.agent.Boost(job2.ID, tok); err == nil {
		t.Error("reused boost token accepted")
	}
}

// TestBoostRebidsWhereTheBidRanDry: the market drops a bid at the tick it
// runs dry, so a boost may find no bid to raise on any of the job's hosts. It
// must then place the money as fresh bids — it used to call Boost on each
// host, discard ErrUnknownBidder and return nil with the token redeemed and
// no bid anywhere.
func TestBoostRebidsWhereTheBidRanDry(t *testing.T) {
	w := newWorld(t, 3)
	job, err := w.agent.Submit(w.payToken(t, 30), request(3, 6*time.Hour), chunks(6, 60))
	if err != nil {
		t.Fatal(err)
	}
	w.eng.RunFor(5 * time.Minute)
	bidder := auction.BidderID(job.SubAccount)
	for _, h := range job.Hosts { // what running dry does to a bid
		host, err := w.cluster.Host(h)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := host.Market.CancelBid(bidder); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.agent.Boost(job.ID, w.payToken(t, 12)); err != nil {
		t.Fatalf("boost of a job with no live bid: %v", err)
	}
	var placed bank.Amount
	for _, h := range job.Hosts {
		host, _ := w.cluster.Host(h)
		r, err := host.Market.Remaining(bidder)
		if err != nil {
			t.Fatalf("boost accepted, but %s holds no bid of the job: %v", h, err)
		}
		placed += r
	}
	if placed != 12*bank.Credit {
		t.Errorf("the boost put %v on the job's hosts, want the 12 credits it redeemed", placed)
	}

	// A boost no host can take a share of says so, and the money is refunded
	// with the rest of the escrow.
	before, _ := w.bank.Balance("broker")
	if err := w.agent.Boost(job.ID, w.payToken(t, 0.000002)); err == nil {
		t.Error("a boost of 2 microcredits over 3 hosts raised no bid and reported success")
	}
	if err := w.agent.Cancel(job.ID); err != nil {
		t.Fatal(err)
	}
	after, _ := w.bank.Balance("broker")
	if got, want := after-before, 42*bank.Credit+2-job.Charged; got != want {
		t.Errorf("cancel returned %v to the broker, want everything funded less the %v charged (%v)", got, job.Charged, want)
	}
}

// TestBoostSkipsHostsWithoutABid: while any host holds a live bid the boost
// goes to the live bids, in proportion, walking job.Hosts in order; the host
// whose bid is gone is left alone.
func TestBoostSkipsHostsWithoutABid(t *testing.T) {
	w := newWorld(t, 3)
	job, err := w.agent.Submit(w.payToken(t, 30), request(3, 6*time.Hour), chunks(6, 60))
	if err != nil {
		t.Fatal(err)
	}
	bidder := auction.BidderID(job.SubAccount)
	mid, _ := w.cluster.Host(job.Hosts[1])
	if _, err := mid.Market.CancelBid(bidder); err != nil {
		t.Fatal(err)
	}
	live := func() (sum bank.Amount) {
		for _, h := range []string{job.Hosts[0], job.Hosts[2]} {
			host, _ := w.cluster.Host(h)
			r, err := host.Market.Remaining(bidder)
			if err != nil {
				t.Fatal(err)
			}
			sum += r
		}
		return sum
	}
	before := live()
	if err := w.agent.Boost(job.ID, w.payToken(t, 10)); err != nil {
		t.Fatal(err)
	}
	if _, err := mid.Market.Remaining(bidder); !errors.Is(err, auction.ErrUnknownBidder) {
		t.Errorf("the host without a bid got one while others had live bids: %v", err)
	}
	// Each share is rounded down to the microcredit.
	if got := live() - before; got > 10*bank.Credit || got < 10*bank.Credit-2 {
		t.Errorf("the two live bids grew by %v, want the 10 credits boosted", got)
	}
}

func TestSubmitValidation(t *testing.T) {
	w := newWorld(t, 1)
	if _, err := w.agent.Submit(token.Token{}, request(1, time.Hour), chunks(1, 1)); err == nil {
		t.Error("zero token accepted")
	}
	if _, err := w.agent.Submit(w.payToken(t, 1), nil, chunks(1, 1)); err == nil {
		t.Error("nil request accepted")
	}
	if _, err := w.agent.Submit(w.payToken(t, 1), request(1, time.Hour), nil); err == nil {
		t.Error("no chunks accepted")
	}
	// Deadline of zero: xrsl request would be invalid, agent must also cope.
	if _, err := w.agent.Submit(w.payToken(t, 1), request(1, 0), chunks(1, 1)); err == nil {
		t.Error("zero deadline accepted")
	}
}

func TestStaggeredUsersGetFewerNodes(t *testing.T) {
	// The Table 1 effect in miniature: a later user with the same budget
	// concentrates on fewer hosts because prices have risen.
	w := newWorld(t, 6)
	first, err := w.agent.Submit(w.payToken(t, 30), request(6, 8*time.Hour), chunks(12, 60))
	if err != nil {
		t.Fatal(err)
	}
	w.eng.RunFor(time.Minute)
	second, err := w.agent.Submit(w.payToken(t, 30), request(6, 8*time.Hour), chunks(12, 60))
	if err != nil {
		t.Fatal(err)
	}
	if len(second.Hosts) > len(first.Hosts) {
		t.Errorf("later user funded more hosts (%d) than first (%d)",
			len(second.Hosts), len(first.Hosts))
	}
	w.eng.RunFor(24 * time.Hour)
	if first.State != StateDone || second.State != StateDone {
		t.Fatalf("jobs unfinished: %v, %v", first.State, second.State)
	}
	if second.MeanLatency() < first.MeanLatency() {
		t.Errorf("later user got better latency: %v vs %v",
			second.MeanLatency(), first.MeanLatency())
	}
}

func TestHoldBackPolicy(t *testing.T) {
	// Paper §5.3: "let the user hold back on submitting if not a threshold
	// of minimum hosts to bid on is met". With 2 hosts and minhosts=5 the
	// submission is rejected and the funds come back in full.
	w := newWorld(t, 2)
	brokerBefore, _ := w.bank.Balance("broker")
	jr := request(5, time.Hour)
	jr.MinHosts = 5
	_, err := w.agent.Submit(w.payToken(t, 20), jr, chunks(5, 10))
	if !errors.Is(err, ErrHoldBack) {
		t.Fatalf("err = %v, want ErrHoldBack", err)
	}
	// The token's 20 credits landed at the broker and stayed there (full
	// refund, nothing bid away).
	brokerAfter, _ := w.bank.Balance("broker")
	if brokerAfter-brokerBefore != 20*bank.Credit {
		t.Errorf("broker delta = %v, want full 20-credit refund", brokerAfter-brokerBefore)
	}
	// The market holds no residual bids.
	for _, id := range w.cluster.HostIDs() {
		h, _ := w.cluster.Host(id)
		if h.Market.Bidders() != 0 {
			t.Errorf("host %s still has bids after hold-back", id)
		}
	}
	// A satisfiable threshold passes.
	jr2 := request(2, time.Hour)
	jr2.MinHosts = 2
	job, err := w.agent.Submit(w.payToken(t, 20), jr2, chunks(2, 5))
	if err != nil {
		t.Fatalf("satisfiable minhosts rejected: %v", err)
	}
	w.eng.RunFor(time.Hour)
	if job.State != StateDone {
		t.Errorf("job state = %v", job.State)
	}
}

// TestHoldBackErrorCountsFundedHosts pins the hold-back refusal's message to
// what Best Response funded before the job was unwound: two hosts, not the
// zero the unwound job is left with.
func TestHoldBackErrorCountsFundedHosts(t *testing.T) {
	w := newWorld(t, 2)
	jr := request(5, time.Hour)
	jr.MinHosts = 5
	job, err := w.agent.Submit(w.payToken(t, 20), jr, chunks(5, 10))
	if !errors.Is(err, ErrHoldBack) {
		t.Fatalf("err = %v, want ErrHoldBack", err)
	}
	if len(job.Bids) != 2 {
		t.Fatalf("best response placed %d bids, want 2 (both hosts)", len(job.Bids))
	}
	if want := "funded 2, need 5"; !strings.Contains(err.Error(), want) {
		t.Errorf("err = %q, want it to say %q", err, want)
	}
}

func TestVMExhaustionQueuesAndRetries(t *testing.T) {
	// One host with a single VM slot: two jobs contend for it. The second
	// job's chunks cannot start while the first occupies the VM; they must
	// queue and run to completion once the slot frees.
	eng := sim.NewEngine()
	ca, err := pki.NewDeterministicCA("/O=Grid/CN=CA", [32]byte{1}, pki.WithTimeSource(eng.Now))
	if err != nil {
		t.Fatal(err)
	}
	bankID, _ := ca.IssueDeterministic("/CN=Bank", [32]byte{2})
	brokerID, _ := ca.IssueDeterministic("/CN=Broker", [32]byte{3})
	user, _ := ca.IssueDeterministic("/O=Grid/CN=Alice", [32]byte{4})
	userBank, _ := ca.IssueDeterministic("/CN=AliceBank", [32]byte{5})
	b := bank.New(bankID, eng)
	if _, err := b.CreateAccount("alice", userBank.Public()); err != nil {
		t.Fatal(err)
	}
	if _, err := b.CreateAccount("broker", brokerID.Public()); err != nil {
		t.Fatal(err)
	}
	if err := b.Deposit("alice", 1000*bank.Credit, ""); err != nil {
		t.Fatal(err)
	}
	// One VM slot plus idle-VM purging: when the first job's VM idles, the
	// purge frees the slot and the pump starts the queued job.
	cluster, err := grid.New(eng, grid.Config{
		Hosts:          []grid.HostSpec{{ID: "h00", CPUs: 2, CPUMHz: 2800, MaxVMs: 1}},
		PurgeIdleAfter: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.Start(); err != nil {
		t.Fatal(err)
	}
	v, err := token.NewVerifier(b.PublicKey(), ca.Certificate(), "broker", nil)
	if err != nil {
		t.Fatal(err)
	}
	ag, err := New(Config{Cluster: cluster, Bank: b, Identity: brokerID, Account: "broker", Verifier: v})
	if err != nil {
		t.Fatal(err)
	}
	mint := func(n string) token.Token {
		req := bank.TransferRequest{From: "alice", To: "broker", Amount: 50 * bank.Credit, Nonce: n}
		req.Sig = userBank.Sign(req.SigningBytes())
		r, err := b.Transfer(req)
		if err != nil {
			t.Fatal(err)
		}
		return token.Attach(r, user)
	}
	j1, err := ag.Submit(mint("vm1"), request(1, 4*time.Hour), chunks(2, 10))
	if err != nil {
		t.Fatal(err)
	}
	j2, err := ag.Submit(mint("vm2"), request(1, 4*time.Hour), chunks(2, 10))
	if err != nil {
		t.Fatalf("second job must queue, not fail: %v", err)
	}
	if j2.Completed() != 0 {
		t.Fatalf("second job should be waiting for the VM slot")
	}
	eng.RunFor(4 * time.Hour)
	if j1.State != StateDone {
		t.Errorf("job 1 = %v (%d/%d)", j1.State, j1.Completed(), j1.Total())
	}
	if j2.State != StateDone {
		t.Errorf("job 2 = %v (%d/%d) — queued chunks never retried",
			j2.State, j2.Completed(), j2.Total())
	}
}

func TestJobsAccessors(t *testing.T) {
	w := newWorld(t, 1)
	j, err := w.agent.Submit(w.payToken(t, 10), request(1, time.Hour), chunks(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	got, err := w.agent.Job(j.ID)
	if err != nil || got != j {
		t.Errorf("Job() = %v, %v", got, err)
	}
	if _, err := w.agent.Job("ghost"); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("ghost: %v", err)
	}
	if len(w.agent.Jobs()) != 1 {
		t.Errorf("jobs = %d", len(w.agent.Jobs()))
	}
}

func TestCancelRefundsAndStops(t *testing.T) {
	w := newWorld(t, 2)
	job, err := w.agent.Submit(w.payToken(t, 60), request(2, 4*time.Hour), chunks(6, 30))
	if err != nil {
		t.Fatal(err)
	}
	if job.Total() != 6 {
		t.Errorf("total = %d", job.Total())
	}
	w.eng.RunFor(20 * time.Minute)
	charged := job.Charged
	if charged <= 0 {
		t.Fatal("no charges accrued before cancel")
	}
	if err := w.agent.Cancel(job.ID); err != nil {
		t.Fatal(err)
	}
	if job.State != StateFailed {
		t.Errorf("state = %v", job.State)
	}
	// Unspent budget refunded to the broker.
	brokerBal, _ := w.bank.Balance("broker")
	if brokerBal != 60*bank.Credit-charged {
		t.Errorf("broker balance = %v, want %v", brokerBal, 60*bank.Credit-charged)
	}
	// No further progress or charges.
	w.eng.RunFor(time.Hour)
	if job.Charged != charged {
		t.Errorf("charges after cancel: %v -> %v", charged, job.Charged)
	}
	// Errors.
	if err := w.agent.Cancel(job.ID); !errors.Is(err, ErrJobDone) {
		t.Errorf("double cancel: %v", err)
	}
	if err := w.agent.Cancel("ghost"); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("ghost cancel: %v", err)
	}
}

func TestAgentAccessorsAndMetrics(t *testing.T) {
	w := newWorld(t, 3)
	if got := w.agent.HostIDs(); len(got) != 3 {
		t.Errorf("host ids = %v", got)
	}
	if p := w.agent.MeanSpotPrice(); p <= 0 {
		t.Errorf("mean spot price = %v (reserve floor expected)", p)
	}
	job, err := w.agent.Submit(w.payToken(t, 30), request(3, 2*time.Hour), chunks(3, 10))
	if err != nil {
		t.Fatal(err)
	}
	before := w.agent.MeanSpotPrice()
	w.eng.RunFor(time.Minute)
	if got := w.agent.MeanSpotPrice(); got < before {
		t.Errorf("spot price fell while bids live: %v -> %v", before, got)
	}
	w.eng.RunFor(2 * time.Hour)
	if job.State != StateDone {
		t.Fatal("job did not finish")
	}
	if job.CostRate() <= 0 {
		t.Errorf("cost rate = %v", job.CostRate())
	}
	if w.agent.Cluster() != w.cluster {
		t.Error("Cluster accessor")
	}
	if w.agent.Engine() != w.eng {
		t.Error("Engine accessor")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config accepted")
	}
}

// TestPartitionNamingAHostTwiceIsRefused: a partition that lists a host twice
// used to attach the host's feed observer twice — each clear offered to its
// ring twice, the copy rejected as a duplicate — and to offer it to Best
// Response twice, which could fund it twice, the second bid replacing the
// first.
func TestPartitionNamingAHostTwiceIsRefused(t *testing.T) {
	w := newWorld(t, 3)
	_, err := New(Config{Cluster: w.cluster, Bank: w.bank, Identity: w.agent.cfg.Identity,
		Account: "broker", Verifier: w.agent.cfg.Verifier, Hosts: []string{"h00", "h02", "h00"}, JobIDPrefix: "p1"})
	if err == nil || !strings.Contains(err.Error(), `"h00"`) {
		t.Fatalf("partition h00 h02 h00: %v, want an error naming h00", err)
	}
}

// TestPartitionLayoutKeepsOneCopy: an agent keeps its host set once where
// its order is the cluster's (the whole cluster, or a partition listed in
// that order), and lays out a copy only for a partition listed otherwise.
// The whole cluster's is the cluster's own: its ids, and its hosts by index,
// with no list of the agent's. Either way HostIDs is a copy in the order the
// partition was given.
func TestPartitionLayoutKeepsOneCopy(t *testing.T) {
	w := newWorld(t, 4)
	for _, hosts := range [][]string{nil, {"h01", "h03"}, {"h03", "h00", "h02"}} {
		a := w.agent
		if hosts != nil {
			var err error
			a, err = New(Config{Cluster: w.cluster, Bank: w.bank, Identity: w.agent.cfg.Identity,
				Account: "broker", Verifier: w.agent.cfg.Verifier, Hosts: hosts, JobIDPrefix: "p1"})
			if err != nil {
				t.Fatal(err)
			}
		}
		want := hosts
		if want == nil {
			want = w.cluster.HostIDs()
		}
		got := a.HostIDs()
		if !slices.Equal(got, want) {
			t.Errorf("HostIDs = %v, want the partition as given, %v", got, want)
		}
		got[0] = "changed"
		if a.HostIDs()[0] != want[0] {
			t.Errorf("%v: HostIDs handed out the agent's own slice", want)
		}
		sorted := slices.IsSorted(want)
		if shared := &a.ids[0] == &a.cfg.Hosts[0]; shared != sorted {
			t.Errorf("%v: host set kept once = %v, want %v", want, shared, sorted)
		}
		if whole := hosts == nil; whole != (a.hosts == nil) || whole && &a.ids[0] != &w.cluster.SharedHostIDs()[0] {
			t.Errorf("%v: the agent keeps a host list %v, its ids shared with the cluster's %v, want both only for the whole cluster",
				want, a.hosts != nil, &a.ids[0] == &w.cluster.SharedHostIDs()[0])
		}
		if !slices.IsSorted(a.ids) || len(a.ids) != len(want) {
			t.Errorf("%v: laid out as %v, want the partition in cluster order", want, a.ids)
		}
		for p, id := range a.ids {
			if h, err := w.cluster.Host(id); err != nil || a.at[h.Index()] != int32(p) {
				t.Errorf("%v: position %d holds %s, not at its cluster index", want, p, id)
			}
		}
		for i, id := range want {
			if got := a.host(i).Spec.ID; got != id {
				t.Errorf("%v: host %d is %s, want %s", want, i, got, id)
			}
		}
	}
}

func TestJobStateString(t *testing.T) {
	if StateRunning.String() != "running" || StateDone.String() != "done" ||
		StateFailed.String() != "failed" || JobState(9).String() != "state(9)" {
		t.Error("state strings")
	}
}

// Job returns a submitted job by id.
func (a *Agent) Job(id string) (*Job, error) {
	j, ok := a.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	return j, nil
}
