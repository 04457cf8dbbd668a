package experiment

import (
	"fmt"
	"testing"
	"time"

	"tycoongrid/internal/agent"
	"tycoongrid/internal/bank"
	"tycoongrid/internal/box"
	"tycoongrid/internal/mechanism"
)

// The scenario behind Figures 3-7. Every charge of a tick is settled before
// any task callback of that tick runs; when charges were delivered host by
// host between the callbacks, a job finishing on an early host refunded its
// escrow while a later host's cleared charge was still owed, and the agent's
// charge hit an empty sub-account.
func TestLoadScenarioSettlesChargesBeforeCallbacks(t *testing.T) {
	p := DefaultLoadParams()
	p.World.Tracer = quietTracer()
	res, err := RunLoad(p)
	if err != nil {
		t.Fatal(err)
	}
	w := res.World
	if got, want := w.Bank.TotalMoney(), bank.Amount(p.World.Users)*p.World.GrantPerUser; got != want {
		t.Errorf("money supply %v after the run, want the %v deposited", got, want)
	}
	ended := 0
	for _, job := range w.Agent.Jobs() {
		if job.State == agent.StateRunning {
			continue // still in flight at the horizon: escrow legitimately held
		}
		ended++
		if bal, err := w.Bank.Balance(job.SubAccount); err != nil || bal != 0 {
			t.Errorf("%s ended %s with %v left in %s (%v)", job.ID, job.State, bal, job.SubAccount, err)
		}
	}
	if ended == 0 {
		t.Error("no job ended: the scenario exercised no refund")
	}
}

// TestLoadRunInvariants drives one seeded load scenario to quiescence under
// every clearing mechanism, with and without host churn: Poisson arrivals of
// random bag-of-tasks jobs for five hours, every deadline passed by the
// ninth. With churn, every host crashes and recovers throughout, on the
// world's seeded schedule. Each run conserves the money supply, accepts at
// least 20 jobs, leaves none running and keeps its whole price trace.
func TestLoadRunInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("6 nine-hour load scenarios")
	}
	for _, mech := range mechanism.Names() {
		for _, churn := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/churn=%v", mech, churn), func(t *testing.T) {
				t.Parallel()
				loadRun(t, mech, churn)
			})
		}
	}
}

func loadRun(t *testing.T, mech string, churn bool) {
	cfg := PaperWorld()
	cfg.Hosts = 8
	cfg.Users = 6
	cfg.Seed = 17
	cfg.PurgeIdleAfter = 30 * time.Minute
	cfg.Tracer = quietTracer()
	cfg.Mechanism = mech
	if churn {
		cfg.Churn = box.Churn{MTTF: 90 * time.Minute, MTTR: 10 * time.Minute}
	}
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Room for the nine hours' ticks plus the clears each recovery runs.
	if err := w.holdRun(10 * time.Hour); err != nil {
		t.Fatal(err)
	}
	src := w.Src.Split()
	var arrive func()
	arrive = func() {
		u := w.Users[src.Intn(len(w.Users))]
		budget := bank.MustCredits(src.Uniform(10, 120))
		deadline := time.Duration(src.Uniform(1.5, 3) * float64(time.Hour))
		// A rejected submission (a wave of crashes left no live host) is an
		// outcome like any other.
		_, _ = w.SubmitApp(u, budget, deadline, 3+src.Intn(10), src.Uniform(5, 20), 2+src.Intn(5))
		gap := time.Duration(src.Exponential(1.0/(10*60)) * float64(time.Second))
		if w.Engine.Elapsed()+gap < 5*time.Hour {
			if err := w.Engine.After(gap, arrive); err != nil {
				t.Error(err)
			}
		}
	}
	if err := w.Engine.After(time.Minute, arrive); err != nil {
		t.Fatal(err)
	}
	w.Engine.RunFor(9 * time.Hour)

	if failures, _ := w.Cluster.Outages(); churn && failures == 0 {
		t.Error("the churn schedule failed no host")
	}
	if got, want := w.Bank.TotalMoney(), bank.Amount(cfg.Users)*cfg.GrantPerUser; got != want {
		t.Errorf("money supply %v, want %v", got, want)
	}
	jobs := w.Agent.Jobs()
	if len(jobs) < 20 {
		t.Errorf("only %d jobs were accepted", len(jobs))
	}
	for _, job := range jobs {
		if job.State == agent.StateRunning {
			t.Errorf("%s still running four hours after the last arrival", job.ID)
		}
	}
	if err := w.checkRun(); err != nil {
		t.Fatal(err)
	}
}
