package arc

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"tycoongrid/internal/agent"
	"tycoongrid/internal/bank"
	"tycoongrid/internal/grid"
	"tycoongrid/internal/pki"
	"tycoongrid/internal/sim"
	"tycoongrid/internal/token"
	"tycoongrid/internal/xrsl"
)

// world is the full grid-market stack: bank, cluster, agent, ARC manager.
type world struct {
	eng      *sim.Engine
	bank     *bank.Bank
	manager  *Manager
	user     *pki.Identity
	userBank *pki.Identity
	nonce    int
}

func newWorld(t *testing.T, hosts int) *world {
	t.Helper()
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
	if err := b.Deposit("alice", 100000*bank.Credit, "grant"); err != nil {
		t.Fatal(err)
	}
	specs := make([]grid.HostSpec, hosts)
	for i := range specs {
		specs[i] = grid.HostSpec{ID: fmt.Sprintf("h%02d", i), CPUs: 2, CPUMHz: 2800, MaxVMs: 30}
	}
	cluster, err := grid.New(eng, grid.Config{Hosts: specs})
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
	ag, err := agent.New(agent.Config{
		Cluster: cluster, Bank: b, Identity: brokerID, Account: "broker", Verifier: v,
	})
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := New(Config{
		ClusterName:  "tycoon-test",
		Agent:        ag,
		StageInTime:  30 * time.Second,
		StageOutTime: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &world{eng: eng, bank: b, manager: mgr, user: user, userBank: userBank}
}

// encodedToken pays credits to the broker and returns the xRSL-ready token.
func (w *world) encodedToken(t *testing.T, credits float64) string {
	t.Helper()
	w.nonce++
	req := bank.TransferRequest{From: "alice", To: "broker",
		Amount: bank.MustCredits(credits), Nonce: fmt.Sprintf("arc%04d", w.nonce)}
	req.Sig = w.userBank.Sign(req.SigningBytes())
	r, err := w.bank.Transfer(req)
	if err != nil {
		t.Fatal(err)
	}
	s, err := token.Encode(token.Attach(r, w.user))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func (w *world) xrslJob(t *testing.T, credits float64, count, cpuMinutes, wallMinutes int) string {
	return fmt.Sprintf(
		"&(executable=scan.sh)(jobname=scan)(count=%d)(cputime=%d)(walltime=%d)"+
			"(runtimeenvironment=APPS/BIO/BLAST-2.0)"+
			"(inputfiles=(proteome.dat gsiftp://db/proteome.dat))"+
			"(outputfiles=(result.dat \"\"))"+
			"(transfertoken=%s)",
		count, cpuMinutes, wallMinutes, w.encodedToken(t, credits))
}

func TestSubmitLifecycle(t *testing.T) {
	w := newWorld(t, 4)
	gj, err := w.manager.Submit(w.xrslJob(t, 100, 4, 30, 300), nil)
	if err != nil {
		t.Fatal(err)
	}
	if gj.State != StatePreparing {
		t.Errorf("state after submit = %v", gj.State)
	}
	if !strings.HasPrefix(gj.ID, "gsiftp://tycoon-test/jobs/") {
		t.Errorf("id = %q", gj.ID)
	}
	// Stage-in is one file x 30 s.
	w.eng.RunFor(time.Minute)
	if gj.State != StateRunning {
		t.Fatalf("state after stage-in = %v", gj.State)
	}
	if gj.AgentJob == nil || gj.Started.IsZero() {
		t.Fatal("agent job not started")
	}
	// The token is spent once decoded: the request the job keeps drops it.
	if tok := gj.Request.TransferToken; tok != "" {
		t.Errorf("the accepted job keeps its %d-byte transfer token", len(tok))
	}
	w.eng.RunFor(3 * time.Hour)
	if gj.State != StateFinished {
		t.Fatalf("state = %v (agent %v %d/%d)", gj.State, gj.AgentJob.State,
			gj.AgentJob.Completed(), gj.AgentJob.Total())
	}
	if gj.Finished.Before(gj.Started) {
		t.Error("finish before start")
	}
	// Stage-out delay applied: finish is at least 30 s after last sub-job.
	if gj.Finished.Sub(gj.AgentJob.Submitted) < 30*time.Second {
		t.Error("stage-out not modeled")
	}
	// The finished job lets its lifecycle span go and keeps only its ids,
	// which the timeline still names; the agent job keeps no callback.
	if gj.span != nil {
		t.Error("the finished job keeps its ended lifecycle span")
	}
	if gj.AgentJob.OnEnd != nil {
		t.Error("the finished job's agent record keeps its callback")
	}
	tl, err := w.manager.Timeline(gj.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !gj.spanCtx.Valid() || tl.TraceID != gj.spanCtx.TraceID.String() || tl.SpanID != gj.spanCtx.SpanID.String() {
		t.Errorf("timeline names trace %q span %q, the job's span was %v", tl.TraceID, tl.SpanID, gj.spanCtx)
	}
}

func TestSubmitErrors(t *testing.T) {
	w := newWorld(t, 1)
	if _, err := w.manager.Submit("not xrsl", nil); err == nil {
		t.Error("garbage xRSL accepted")
	}
	if _, err := w.manager.Submit("&(executable=x)(walltime=10)", nil); !errors.Is(err, ErrNoToken) {
		t.Errorf("missing token: %v", err)
	}
	if _, err := w.manager.Submit("&(executable=x)(walltime=10)(transfertoken=garbage)", nil); err == nil {
		t.Error("garbage token accepted")
	}
	// Syntactically valid but unpayable token (forged): job fails at
	// stage-in handoff, asynchronously.
	forged := w.xrslJob(t, 5, 1, 5, 60)
	gj, err := w.manager.Submit(forged, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Submit the same token again: double spend must fail the second job.
	desc, _ := xrsl.Parse(forged)
	jr, _ := desc.ToJobRequest()
	dup := fmt.Sprintf("&(executable=x)(walltime=10)(transfertoken=%s)", jr.TransferToken)
	gj2, err := w.manager.Submit(dup, nil)
	if err != nil {
		t.Fatal(err)
	}
	w.eng.RunFor(5 * time.Minute)
	// gj2 has no input files, so its stage-in is instant and it verifies the
	// token first; gj's later verification must then fail. Exactly one of
	// the two jobs may consume the token.
	if gj2.State == StateFailed {
		t.Errorf("instant-stage-in job failed: %s", gj2.Error)
	}
	if gj.State != StateFailed {
		t.Errorf("double-spend job state = %v", gj.State)
	}
	if !strings.Contains(gj.Error, "already used") {
		t.Errorf("failure reason = %q", gj.Error)
	}
}

func TestDefaultChunkWork(t *testing.T) {
	jr := &xrsl.JobRequest{Count: 3, CPUTime: 10 * time.Minute}
	w := DefaultChunkWork(jr)
	if len(w) != 3 || w[0] != 600*2800 {
		t.Errorf("chunk work = %v", w)
	}
	jr2 := &xrsl.JobRequest{Count: 2, WallTime: 20 * time.Minute}
	w2 := DefaultChunkWork(jr2)
	if len(w2) != 2 || w2[0] != 600*2800 {
		t.Errorf("fallback chunk work = %v", w2)
	}
}

func TestBoost(t *testing.T) {
	w := newWorld(t, 2)
	gj, err := w.manager.Submit(w.xrslJob(t, 50, 2, 60, 600), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.manager.Boost(gj.ID, w.encodedToken(t, 10)); err == nil {
		t.Error("boost before running accepted")
	}
	w.eng.RunFor(2 * time.Minute)
	if gj.State != StateRunning {
		t.Fatalf("state = %v", gj.State)
	}
	if err := w.manager.Boost(gj.ID, w.encodedToken(t, 10)); err != nil {
		t.Errorf("boost: %v", err)
	}
	if err := w.manager.Boost("ghost", w.encodedToken(t, 1)); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("ghost boost: %v", err)
	}
	if err := w.manager.Boost(gj.ID, "garbage"); err == nil {
		t.Error("garbage boost token accepted")
	}
}

// TestTimelineRecordsAreBounded pins the cap on a job's records: boosts past
// agent.MaxRecords are left off the timeline and counted in dropped_events,
// while the job's other events — derived from its fields — are all there.
func TestTimelineRecordsAreBounded(t *testing.T) {
	if agent.MaxRecords != 128 {
		t.Fatalf("agent.MaxRecords = %d, want 128", agent.MaxRecords)
	}
	const extra = 3
	w := newWorld(t, 2)
	gj, err := w.manager.Submit(w.xrslJob(t, 50, 2, 60, 600), nil)
	if err != nil {
		t.Fatal(err)
	}
	w.eng.RunFor(2 * time.Minute)
	for i := 0; i < agent.MaxRecords+extra; i++ {
		if err := w.manager.Boost(gj.ID, w.encodedToken(t, 1)); err != nil {
			t.Fatalf("boost %d: %v", i, err)
		}
	}
	w.eng.RunFor(6 * time.Hour)
	tl, err := w.manager.Timeline(gj.ID)
	if err != nil {
		t.Fatal(err)
	}
	if tl.State != StateFinished || tl.Dropped != extra {
		t.Fatalf("%s dropped %d events, want %d", tl.State, tl.Dropped, extra)
	}
	count := map[string]int{}
	for _, e := range tl.Events {
		count[e.Name]++
	}
	if count["boosted"] != agent.MaxRecords || count["placed"] != 2 || count["completed"] != 1 || count["finished"] != 1 {
		t.Errorf("event counts %v, want %d boosted and every derived event", count, agent.MaxRecords)
	}
}

func TestMonitor(t *testing.T) {
	w := newWorld(t, 3)
	snap := w.manager.Monitor()
	if snap.PhysicalNodes != 3 || snap.VirtualCPUs != 0 {
		t.Errorf("initial snapshot = %+v", snap)
	}
	if snap.MaxVirtualCPUs != 90 {
		t.Errorf("max virtual CPUs = %d, want 90 (30 per host)", snap.MaxVirtualCPUs)
	}
	gj, err := w.manager.Submit(w.xrslJob(t, 60, 3, 30, 300), nil)
	if err != nil {
		t.Fatal(err)
	}
	snap = w.manager.Monitor()
	if snap.JobsQueued != 1 {
		t.Errorf("queued = %d", snap.JobsQueued)
	}
	w.eng.RunFor(5 * time.Minute)
	snap = w.manager.Monitor()
	if snap.JobsRunning != 1 {
		t.Errorf("running = %d", snap.JobsRunning)
	}
	if snap.VirtualCPUs == 0 || snap.RunningVMs == 0 {
		t.Errorf("VM counts = %+v", snap)
	}
	w.eng.RunFor(4 * time.Hour)
	snap = w.manager.Monitor()
	if snap.JobsFinished != 1 || snap.JobsRunning != 0 {
		t.Errorf("final snapshot = %+v (job %v)", snap, gj.State)
	}
}

func TestJobsAccessors(t *testing.T) {
	w := newWorld(t, 1)
	gj, err := w.manager.Submit(w.xrslJob(t, 10, 1, 5, 60), nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := w.manager.Job(gj.ID)
	if err != nil || got != gj {
		t.Errorf("Job: %v, %v", got, err)
	}
	if _, err := w.manager.Job("ghost"); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("ghost: %v", err)
	}
	if len(w.manager.Jobs()) != 1 {
		t.Error("Jobs() length")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("nil agent accepted")
	}
}

func TestExplicitChunkWorkOverride(t *testing.T) {
	w := newWorld(t, 2)
	work := []float64{60 * 2800, 60 * 2800, 60 * 2800, 60 * 2800}
	gj, err := w.manager.Submit(w.xrslJob(t, 20, 2, 30, 120), work)
	if err != nil {
		t.Fatal(err)
	}
	w.eng.RunFor(time.Hour)
	if gj.State != StateFinished {
		t.Fatalf("state = %v", gj.State)
	}
	if gj.AgentJob.Total() != 4 {
		t.Errorf("sub-jobs = %d, want explicit 4", gj.AgentJob.Total())
	}
}
