package box

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"tycoongrid/internal/arc"
	"tycoongrid/internal/bank"
	"tycoongrid/internal/sim"
	"tycoongrid/internal/strategy"
)

func newBox(t *testing.T) *Box {
	t.Helper()
	b, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestNewValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Hosts = 0
	if _, err := New(cfg); err == nil {
		t.Error("zero hosts accepted")
	}
}

func TestStartTimes(t *testing.T) {
	b := newBox(t)
	if !b.Engine.Now().Equal(sim.Epoch) {
		t.Errorf("default start = %v", b.Engine.Now())
	}
	cfg := DefaultConfig()
	start := time.Date(2026, 7, 4, 12, 0, 0, 0, time.UTC)
	cfg.Start = start
	b2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !b2.Engine.Now().Equal(start) {
		t.Errorf("custom start = %v", b2.Engine.Now())
	}
}

func TestUserLifecycle(t *testing.T) {
	b := newBox(t)
	u, err := b.CreateUser("alice", 100*bank.Credit)
	if err != nil {
		t.Fatal(err)
	}
	if u.Account != "alice" {
		t.Errorf("account = %v", u.Account)
	}
	if bal, err := b.Balance("alice"); err != nil || bal != 100*bank.Credit {
		t.Errorf("balance = %v, %v", bal, err)
	}
	if _, err := b.CreateUser("alice", 0); !errors.Is(err, ErrUserExists) {
		t.Errorf("duplicate: %v", err)
	}
	if _, err := b.CreateUser("", 0); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := b.Balance("ghost"); !errors.Is(err, ErrUnknownUser) {
		t.Errorf("ghost balance: %v", err)
	}
	if _, err := b.MintToken("ghost", bank.Credit); !errors.Is(err, ErrUnknownUser) {
		t.Errorf("ghost token: %v", err)
	}
}

func TestEndToEndJobThroughBox(t *testing.T) {
	b := newBox(t)
	if _, err := b.CreateUser("alice", 500*bank.Credit); err != nil {
		t.Fatal(err)
	}
	tok, err := b.MintToken("alice", 50*bank.Credit)
	if err != nil {
		t.Fatal(err)
	}
	xrsl := fmt.Sprintf(
		"&(executable=scan.sh)(jobname=box-test)(count=4)(cputime=10)(walltime=120)(transfertoken=%s)", tok)
	gj, err := b.Manager.Submit(xrsl, nil)
	if err != nil {
		t.Fatal(err)
	}
	b.Engine.RunFor(2 * time.Hour)
	if gj.State != arc.StateFinished {
		t.Fatalf("job state = %v (%s)", gj.State, gj.Error)
	}
	if gj.AgentJob.Completed() != 4 {
		t.Errorf("completed = %d", gj.AgentJob.Completed())
	}
	// Money moved: alice paid 50, some flowed to earnings, rest to broker.
	bal, _ := b.Balance("alice")
	if bal != 450*bank.Credit {
		t.Errorf("alice balance = %v", bal)
	}
	earn, _ := b.Bank.Balance("grid-earnings")
	brok, _ := b.Bank.Balance("broker")
	if earn <= 0 {
		t.Error("no host earnings")
	}
	if earn+brok != 50*bank.Credit {
		t.Errorf("money leaked: earnings %v + broker %v != 50", earn, brok)
	}
}

func TestTokensAreSingleUse(t *testing.T) {
	b := newBox(t)
	if _, err := b.CreateUser("alice", 100*bank.Credit); err != nil {
		t.Fatal(err)
	}
	tok, err := b.MintToken("alice", 10*bank.Credit)
	if err != nil {
		t.Fatal(err)
	}
	mk := func() string {
		return fmt.Sprintf("&(executable=x)(cputime=1)(walltime=30)(transfertoken=%s)", tok)
	}
	g1, err := b.Manager.Submit(mk(), nil)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := b.Manager.Submit(mk(), nil)
	if err != nil {
		t.Fatal(err)
	}
	b.Engine.RunFor(time.Hour)
	finished := 0
	for _, g := range []*arc.GridJob{g1, g2} {
		if g.State == arc.StateFinished {
			finished++
		}
	}
	if finished != 1 {
		t.Errorf("token used by %d jobs, want exactly 1", finished)
	}
	// Only 10 credits left the account regardless.
	if bal, _ := b.Balance("alice"); bal != 90*bank.Credit {
		t.Errorf("alice balance = %v", bal)
	}
}

func TestPartitionedBoxRoutesThroughMeta(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Partitions = 2
	cfg.Strategy = "predicted-mean"
	cfg.Horizon = 10 * time.Minute
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if b.Meta == nil {
		t.Fatal("partitioned box has no meta-scheduler")
	}
	if got := b.Meta.Strategy(); got != "predicted-mean" {
		t.Errorf("strategy = %q", got)
	}
	if b.Meta.Replicas() != 2 {
		t.Errorf("replicas = %d", b.Meta.Replicas())
	}
	if _, err := b.CreateUser("alice", 500*bank.Credit); err != nil {
		t.Fatal(err)
	}
	b.Engine.RunFor(30 * time.Minute) // accrue price history for the predictor
	tok, err := b.MintToken("alice", 50*bank.Credit)
	if err != nil {
		t.Fatal(err)
	}
	xrsl := fmt.Sprintf(
		"&(executable=scan.sh)(jobname=meta-test)(count=2)(cputime=10)(walltime=120)(transfertoken=%s)", tok)
	gj, err := b.Scheduler().Submit(xrsl, nil)
	if err != nil {
		t.Fatal(err)
	}
	b.Engine.RunFor(2 * time.Hour)
	if gj.State != arc.StateFinished {
		t.Fatalf("job state = %v (%s)", gj.State, gj.Error)
	}
	// The meta routes status calls to whichever partition owns the job.
	if _, err := b.Meta.Job(gj.ID); err != nil {
		t.Errorf("meta job lookup: %v", err)
	}
	if _, err := b.Meta.Timeline(gj.ID); err != nil {
		t.Errorf("meta timeline: %v", err)
	}
}

func TestPartitionedBoxValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Hosts = 7
	cfg.Partitions = 2
	if _, err := New(cfg); err == nil {
		t.Error("7 hosts over 2 partitions accepted")
	}
	cfg = DefaultConfig()
	cfg.Partitions = 2
	cfg.Strategy = "no-such-strategy"
	if _, err := New(cfg); err == nil {
		t.Error("unknown strategy accepted")
	}
	// Single-partition boxes must not construct a meta.
	b, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if b.Meta != nil {
		t.Error("single-partition box has a meta")
	}
	if b.Scheduler() != b.Manager {
		t.Error("single-partition scheduler is not the manager")
	}
}

// handleOnly is predicted-mean as the box's meta-scheduler runs it, behind a
// check of what each pick is given and what it touches.
type handleOnly struct{ strategy.Strategy }

var spied struct{ picks, noHandle, histReads int }

func (s handleOnly) Pick(cands []strategy.Candidate) (strategy.Pick, error) {
	spied.picks++
	for i := range cands {
		if cands[i].Forecast == nil {
			spied.noHandle++
		}
		hist := cands[i].Hist
		cands[i].Hist = func() []float64 { spied.histReads++; return hist() }
	}
	return s.Strategy.Pick(cands)
}

func init() {
	strategy.Register("box-test-handle-only", func(c strategy.Config) strategy.Strategy {
		inner, err := strategy.New(strategy.PredictedMean, c)
		if err != nil {
			panic(err) // the built-in strategy is always registered
		}
		return handleOnly{inner}
	})
}

// TestPartitionedBoxPicksThroughForecastHandles is gridmarketd -partitions 2
// -strategy predicted-mean: every candidate the meta-scheduler offers carries
// a live forecast handle, and matchmaking a job materialises no price
// history.
func TestPartitionedBoxPicksThroughForecastHandles(t *testing.T) {
	spied.picks, spied.noHandle, spied.histReads = 0, 0, 0
	cfg := DefaultConfig()
	cfg.Partitions = 2
	cfg.Strategy = "box-test-handle-only"
	cfg.Horizon = 10 * time.Minute
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.CreateUser("alice", 500*bank.Credit); err != nil {
		t.Fatal(err)
	}
	b.Engine.RunFor(30 * time.Minute)
	// The handles were attached when the box was built, so they have seen
	// every clear: the forecast is ready, not the current-price fallback.
	if _, err := b.Agent.ForecastHandle()(cfg.Horizon); err != nil {
		t.Fatalf("partition 0 forecast after 30 min: %v", err)
	}
	tok, err := b.MintToken("alice", 50*bank.Credit)
	if err != nil {
		t.Fatal(err)
	}
	xrsl := fmt.Sprintf(
		"&(executable=scan.sh)(count=2)(cputime=10)(walltime=120)(transfertoken=%s)", tok)
	if _, err := b.Scheduler().Submit(xrsl, nil); err != nil {
		t.Fatal(err)
	}
	if spied.picks != 1 || spied.noHandle != 0 || spied.histReads != 0 {
		t.Errorf("picks %d, candidates without a handle %d, histories read %d; want 1, 0, 0",
			spied.picks, spied.noHandle, spied.histReads)
	}
}
