package chaos

import (
	"flag"
	"fmt"
	"strings"
	"testing"
	"time"

	"tycoongrid/internal/arc"
	"tycoongrid/internal/bank"
	"tycoongrid/internal/box"
	"tycoongrid/internal/fault"
	"tycoongrid/internal/token"
)

var chaosSeed = flag.Int64("chaos.seed", 1, "seed for the chaos fault injector")

const (
	chaosHosts  = 10
	chaosJobs   = 8
	initialBank = 100000 * bank.Credit // the user's opening deposit
	jobBudget   = 50.0                 // credits per job
)

// world is the full grid-market stack, as the daemon and the experiments
// assemble it, plus the chaos injector.
type world struct {
	*box.Box
	injector *fault.Injector
}

func newWorld(t *testing.T, seed int64, shards int) *world {
	t.Helper()
	b, err := box.New(box.Config{
		Hosts: chaosHosts, CPUsPerHost: 2, CPUMHz: 2800, Shards: shards,
		Seed: 1, Users: 1, GrantPerUser: initialBank,
		ClusterName: "chaos-grid", StageInTime: 30 * time.Second, StageOutTime: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	// MTTF 20 min across 10 hosts over a 6 h run: each host fails many
	// times, far past the 20% churn floor the test asserts, and enough
	// that some jobs lose every funded host and exercise the refund path.
	inj, err := fault.NewInjector(b.Cluster, fault.InjectorConfig{
		Seed:  seed,
		MTTF:  20 * time.Minute,
		MTTR:  10 * time.Minute,
		Hosts: b.Cluster.HostIDs(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return &world{Box: b, injector: inj}
}

// xrslJob mints a fresh transfer token and wraps it in a paper-shaped xRSL
// description: count sub-jobs, cputime per sub-job, walltime deadline.
func (w *world) xrslJob(t *testing.T, credits float64, count, cpuMinutes, wallMinutes int) string {
	t.Helper()
	tok, err := w.MintToken(w.Users[0], bank.MustCredits(credits))
	if err != nil {
		t.Fatal(err)
	}
	s, err := token.Encode(tok)
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
		gj, err := w.Manager.Submit(w.xrslJob(t, jobBudget, 3, 20, 180), nil)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		jobs = append(jobs, gj)
		w.Engine.RunFor(10 * time.Minute)
	}
	w.Engine.RunFor(6 * time.Hour)
	w.injector.Stop()
	w.Engine.RunFor(30 * time.Minute) // drain recoveries, stage-outs, pump ticks

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
		bal, err := w.Bank.Balance(gj.AgentJob.SubAccount)
		if err != nil || bal != 0 {
			t.Errorf("sub-account %s balance = %v (%v), want 0",
				gj.AgentJob.SubAccount, bal, err)
		}
	}

	// Invariant 3: total currency conserved — the money supply still equals
	// the user's opening deposit, spread over the user, broker refunds, and
	// earnings.
	if got := w.Bank.TotalMoney(); got != initialBank {
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
	userBal, _ := w.Bank.Balance(w.Users[0].Account)
	brokerBal, _ := w.Bank.Balance("broker")
	earnBal, _ := w.Bank.Balance("grid-earnings")
	if userBal != initialBank-spent {
		t.Errorf("user = %v, want %v", userBal, initialBank-spent)
	}
	if brokerBal != spent-charged {
		t.Errorf("broker = %v, want unspent %v", brokerBal, spent-charged)
	}
	if earnBal != charged {
		t.Errorf("earnings = %v, want charged %v", earnBal, charged)
	}
	fmt.Fprintf(&outcome, "user %v, broker %v, earnings %v\n", userBal, brokerBal, earnBal)
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
		gj, err := w.Manager.Submit(w.xrslJob(t, jobBudget, 3, 20, 120), nil)
		if err != nil {
			t.Fatal(err)
		}
		w.Engine.RunFor(4 * time.Hour)
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
