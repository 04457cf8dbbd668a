package experiment

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"tycoongrid/internal/agent"
	"tycoongrid/internal/bank"
	"tycoongrid/internal/fault"
	"tycoongrid/internal/mechanism"
)

// The scenario behind Figures 3-7, with the markets cleared by two shards.
// Every charge of a tick is settled before any task callback of that tick
// runs; when charges were delivered host by host between the callbacks, a job
// finishing on an early host refunded its escrow while a later host's cleared
// charge was still owed, and the agent's charge hit an empty sub-account.
func TestLoadScenarioSettlesChargesBeforeCallbacks(t *testing.T) {
	p := DefaultLoadParams()
	p.World.Shards = 2
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

// shardRun drives one seeded load scenario to quiescence — Poisson arrivals
// of random bag-of-tasks jobs for five hours, every deadline passed by the
// ninth — and returns everything the market computed as text: each host's
// full price series (float bits) and each job's state, charge and duration.
// With churn, a seeded injector crashes and recovers hosts throughout.
func shardRun(t *testing.T, shards int, mech string, churn bool) string {
	t.Helper()
	cfg := PaperWorld()
	cfg.Hosts = 8
	cfg.Users = 6
	cfg.Seed = 17
	cfg.PurgeIdleAfter = 30 * time.Minute
	cfg.Tracer = quietTracer()
	cfg.Mechanism = mech
	cfg.Shards = shards
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Room for the nine hours' ticks plus the clears each recovery runs.
	trace, err := w.recordPrices(10 * time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	var inj *fault.Injector
	if churn {
		inj, err = fault.NewInjector(w.Cluster, fault.InjectorConfig{
			Seed: 5, MTTF: 90 * time.Minute, MTTR: 10 * time.Minute,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := inj.Start(); err != nil {
			t.Fatal(err)
		}
	}

	src := w.Src.Split()
	var arrive func()
	arrive = func() {
		u := w.Users[src.Intn(len(w.Users))]
		budget := bank.MustCredits(src.Uniform(10, 120))
		deadline := time.Duration(src.Uniform(1.5, 3) * float64(time.Hour))
		// A rejected submission (a wave of crashes left no live host) is an
		// outcome like any other; it must only be the same at every count.
		_, _ = w.SubmitApp(u, budget, deadline, 3+src.Intn(10), src.Uniform(5, 20), 2+src.Intn(5))
		gap := time.Duration(src.Exponential(1.0/(10*60)) * float64(time.Second))
		if w.Engine.Elapsed()+gap < 5*time.Hour {
			if _, err := w.Engine.After(gap, arrive); err != nil {
				t.Error(err)
			}
		}
	}
	if _, err := w.Engine.After(time.Minute, arrive); err != nil {
		t.Fatal(err)
	}
	w.Engine.RunFor(9 * time.Hour)

	if churn && inj.Failures() == 0 {
		t.Error("the churn schedule failed no host")
	}
	if got, want := w.Bank.TotalMoney(), bank.Amount(cfg.Users)*cfg.GrantPerUser; got != want {
		t.Errorf("shards=%d: money supply %v, want %v", shards, got, want)
	}
	var out strings.Builder
	jobs := w.Agent.Jobs()
	if len(jobs) < 20 {
		t.Errorf("shards=%d: only %d jobs were accepted", shards, len(jobs))
	}
	for _, job := range jobs {
		if job.State == agent.StateRunning {
			t.Errorf("shards=%d: %s still running four hours after the last arrival", shards, job.ID)
		}
		fmt.Fprintf(&out, "job %s %s charged=%d duration=%d\n", job.ID, job.State, job.Charged, job.Duration())
	}
	if err := trace.check(); err != nil {
		t.Fatal(err)
	}
	for _, h := range w.Cluster.HostIDs() {
		for _, s := range trace.rings[h].Samples() {
			fmt.Fprintf(&out, "price %s %d %016x\n", h, s.At.UnixNano(), math.Float64bits(s.Price))
		}
	}
	return out.String()
}

// TestShardCountChangesNothing is the cluster half of the determinism
// contract: the shard count is parallelism and nothing else. Under every
// clearing mechanism, with and without host churn, a load scenario run at 0,
// 1, 2 and 4 shards yields byte-identical per-host price series and per-job
// outcomes, conserves the money supply and leaves every job terminal.
func TestShardCountChangesNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("24 nine-hour load scenarios")
	}
	for _, mech := range mechanism.Names() {
		for _, churn := range []bool{false, true} {
			mech, churn := mech, churn
			t.Run(fmt.Sprintf("%s/churn=%v", mech, churn), func(t *testing.T) {
				t.Parallel()
				want := shardRun(t, 0, mech, churn)
				for _, shards := range []int{1, 2, 4} {
					got := shardRun(t, shards, mech, churn)
					if got == want {
						continue
					}
					a, b := strings.Split(want, "\n"), strings.Split(got, "\n")
					for i := 0; i < len(a) && i < len(b); i++ {
						if a[i] != b[i] {
							t.Fatalf("shards=%d diverges from shards=0 at line %d of %d/%d:\n  %s\n  %s",
								shards, i, len(a), len(b), a[i], b[i])
						}
					}
					t.Fatalf("shards=%d: %d lines, shards=0: %d lines", shards, len(b), len(a))
				}
			})
		}
	}
}
