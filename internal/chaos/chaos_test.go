package chaos

import (
	"flag"
	"fmt"
	"strings"
	"testing"
	"time"

	"tycoongrid/internal/agent"
	"tycoongrid/internal/arc"
	"tycoongrid/internal/bank"
	"tycoongrid/internal/fault"
	"tycoongrid/internal/grid"
	"tycoongrid/internal/pki"
	"tycoongrid/internal/sim"
	"tycoongrid/internal/token"
)

var chaosSeed = flag.Int64("chaos.seed", 1, "seed for the chaos fault injector")

const (
	chaosHosts  = 10
	chaosJobs   = 8
	initialBank = 100000 * bank.Credit // alice's opening deposit
	jobBudget   = 50.0                 // credits per job
)

// world is the full grid-market stack plus the chaos injector.
type world struct {
	eng      *sim.Engine
	bank     *bank.Bank
	cluster  *grid.Cluster
	agent    *agent.Agent
	manager  *arc.Manager
	injector *fault.Injector
	user     *pki.Identity
	userBank *pki.Identity
	nonce    int
}

func newWorld(t *testing.T, seed int64, shards int) *world {
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
	if err := b.Deposit("alice", initialBank, "grant"); err != nil {
		t.Fatal(err)
	}

	specs := make([]grid.HostSpec, chaosHosts)
	hostIDs := make([]string, chaosHosts)
	for i := range specs {
		id := fmt.Sprintf("h%02d", i)
		specs[i] = grid.HostSpec{ID: id, CPUs: 2, CPUMHz: 2800, MaxVMs: 30}
		hostIDs[i] = id
	}
	cluster, err := grid.New(eng, grid.Config{Hosts: specs, Shards: shards})
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
	mgr, err := arc.New(arc.Config{
		ClusterName:  "chaos-grid",
		Agent:        ag,
		StageInTime:  30 * time.Second,
		StageOutTime: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	// MTTF 20 min across 10 hosts over a 6 h run: each host fails many
	// times, far past the 20% churn floor the test asserts, and enough
	// that some jobs lose every funded host and exercise the refund path.
	inj, err := fault.NewInjector(cluster, fault.InjectorConfig{
		Seed:  seed,
		MTTF:  20 * time.Minute,
		MTTR:  10 * time.Minute,
		Hosts: hostIDs,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &world{eng: eng, bank: b, cluster: cluster, agent: ag, manager: mgr,
		injector: inj, user: user, userBank: userBank}
}

// xrslJob mints a fresh transfer token and wraps it in a paper-shaped xRSL
// description: count sub-jobs, cputime per sub-job, walltime deadline.
func (w *world) xrslJob(t *testing.T, credits float64, count, cpuMinutes, wallMinutes int) string {
	t.Helper()
	w.nonce++
	req := bank.TransferRequest{From: "alice", To: "broker",
		Amount: bank.MustCredits(credits), Nonce: fmt.Sprintf("chaos%04d", w.nonce)}
	req.Sig = w.userBank.Sign(req.SigningBytes())
	r, err := w.bank.Transfer(req)
	if err != nil {
		t.Fatal(err)
	}
	s, err := token.Encode(token.Attach(r, w.user))
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf(
		"&(executable=scan.sh)(jobname=chaos-scan)(count=%d)(cputime=%d)(walltime=%d)"+
			"(runtimeenvironment=APPS/BIO/BLAST-2.0)"+
			"(inputfiles=(proteome.dat gsiftp://db/proteome.dat))"+
			"(outputfiles=(result.dat \"\"))"+
			"(transfertoken=%s)",
		count, cpuMinutes, wallMinutes, s)
}

// TestMarketSurvivesHostChurn is the end-to-end fault-tolerance invariant:
// a full market under continuous host crash/recovery churn loses no money
// and leaves no job in limbo — and does exactly the same thing whether one
// shard clears the markets or four do.
func TestMarketSurvivesHostChurn(t *testing.T) {
	one := surviveHostChurn(t, 1)
	if four := surviveHostChurn(t, 4); four != one {
		t.Errorf("same seed, different outcome at 4 shards:\n%s\nvs at 1 shard:\n%s", four, one)
	}
}

// surviveHostChurn runs the churn scenario at one shard count, asserts its
// invariants and returns the outcome — churn counts, every job's end state
// and charge, the final balances — for comparison across shard counts.
func surviveHostChurn(t *testing.T, shards int) string {
	w := newWorld(t, *chaosSeed, shards)
	if err := w.injector.Start(); err != nil {
		t.Fatal(err)
	}

	// Eight staggered jobs, 3-hour deadlines: under churn some finish, some
	// fail over to surviving hosts, some die at the deadline. All must end.
	jobs := make([]*arc.GridJob, 0, chaosJobs)
	for i := 0; i < chaosJobs; i++ {
		gj, err := w.manager.Submit(w.xrslJob(t, jobBudget, 3, 20, 180), nil)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		jobs = append(jobs, gj)
		w.eng.RunFor(10 * time.Minute)
	}
	w.eng.RunFor(6 * time.Hour)
	w.injector.Stop()
	w.eng.RunFor(30 * time.Minute) // drain recoveries, stage-outs, pump ticks

	// Churn floor: at least 20% of hosts actually failed during the run.
	minFailures := chaosHosts / 5
	if got := w.injector.Failures(); got < minFailures {
		t.Fatalf("injector produced %d host failures, want >= %d (20%% of %d hosts)",
			got, minFailures, chaosHosts)
	}
	var outcome strings.Builder
	fmt.Fprintf(&outcome, "churn: %d failures, %d recoveries over the run\n",
		w.injector.Failures(), w.injector.Recoveries())

	// Invariant 1: every job reached a terminal state.
	var finished, failed int
	for _, gj := range jobs {
		switch gj.State {
		case arc.StateFinished:
			finished++
		case arc.StateFailed:
			failed++
			if gj.Error == "" {
				t.Errorf("job %s failed without a reason", gj.ID)
			}
		default:
			t.Errorf("job %s stuck in state %s", gj.ID, gj.State)
		}
		fmt.Fprintf(&outcome, "%s %s %q", gj.ID, gj.State, gj.Error)
		if gj.AgentJob != nil {
			fmt.Fprintf(&outcome, " charged %v", gj.AgentJob.Charged)
		}
		outcome.WriteByte('\n')
	}
	fmt.Fprintf(&outcome, "jobs: %d finished, %d failed-and-refunded\n", finished, failed)

	// Invariant 2: every job sub-account drained — completed jobs refunded
	// their surplus, failed jobs their full unspent budget.
	for _, gj := range jobs {
		if gj.AgentJob == nil {
			continue // failed before the agent accepted it; nothing escrowed
		}
		bal, err := w.bank.Balance(gj.AgentJob.SubAccount)
		if err != nil || bal != 0 {
			t.Errorf("sub-account %s balance = %v (%v), want 0",
				gj.AgentJob.SubAccount, bal, err)
		}
	}

	// Invariant 3: total currency conserved — the money supply still equals
	// alice's opening deposit, spread over alice, broker refunds, and
	// earnings.
	if got := w.bank.TotalMoney(); got != initialBank {
		t.Errorf("total money = %v, want %v", got, initialBank)
	}

	// Invariant 4: the books reconcile — broker holds exactly the unspent
	// budgets, earnings exactly the charges.
	var spent, charged bank.Amount
	for _, gj := range jobs {
		spent += bank.MustCredits(jobBudget)
		if gj.AgentJob != nil {
			charged += gj.AgentJob.Charged
		}
	}
	aliceBal, _ := w.bank.Balance("alice")
	brokerBal, _ := w.bank.Balance("broker")
	earnBal, _ := w.bank.Balance("grid-earnings")
	if aliceBal != initialBank-spent {
		t.Errorf("alice = %v, want %v", aliceBal, initialBank-spent)
	}
	if brokerBal != spent-charged {
		t.Errorf("broker = %v, want unspent %v", brokerBal, spent-charged)
	}
	if earnBal != charged {
		t.Errorf("earnings = %v, want charged %v", earnBal, charged)
	}
	fmt.Fprintf(&outcome, "alice %v, broker %v, earnings %v\n", aliceBal, brokerBal, earnBal)
	t.Logf("%d shards:\n%s", shards, &outcome)
	return outcome.String()
}

// TestChurnIsDeterministic re-runs a shorter churn scenario twice with the
// same seed and demands identical outcomes — the property that makes chaos
// failures reproducible from a seed number.
func TestChurnIsDeterministic(t *testing.T) {
	run := func() (string, bank.Amount) {
		w := newWorld(t, *chaosSeed, 1)
		if err := w.injector.Start(); err != nil {
			t.Fatal(err)
		}
		gj, err := w.manager.Submit(w.xrslJob(t, jobBudget, 3, 20, 120), nil)
		if err != nil {
			t.Fatal(err)
		}
		w.eng.RunFor(4 * time.Hour)
		w.injector.Stop()
		var ch bank.Amount
		if gj.AgentJob != nil {
			ch = gj.AgentJob.Charged
		}
		return string(gj.State), ch
	}
	s1, c1 := run()
	s2, c2 := run()
	if s1 != s2 || c1 != c2 {
		t.Errorf("same seed diverged: (%s, %v) vs (%s, %v)", s1, c1, s2, c2)
	}
}
