package box

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"tycoongrid/internal/arc"
	"tycoongrid/internal/bank"
	"tycoongrid/internal/durable"
	"tycoongrid/internal/mechanism"
	"tycoongrid/internal/sim"
	"tycoongrid/internal/strategy"
	"tycoongrid/internal/token"
)

func newBox(t *testing.T) *Box {
	t.Helper()
	b, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// fund creates a user holding grant and returns a mint of encoded transfer
// tokens on their account, ready for an xRSL transfertoken attribute.
func fund(t *testing.T, b *Box, name string, grant bank.Amount) (*User, func(bank.Amount) string) {
	t.Helper()
	u, err := b.CreateUser(name, grant)
	if err != nil {
		t.Fatal(err)
	}
	return u, func(amount bank.Amount) string {
		t.Helper()
		tok, err := b.MintToken(u, amount)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := token.Encode(tok)
		if err != nil {
			t.Fatal(err)
		}
		return enc
	}
}

// TestNewValidation: every field is checked, whatever the others say. A
// strategy with nothing to choose between used to be dropped silently
// (gridmarketd -strategy predicted-mean without -partitions ran
// current-price), and an unknown one was only noticed when partitioned.
func TestNewValidation(t *testing.T) {
	bad := map[string]func(*Config){
		"zero hosts":                   func(c *Config) { c.Hosts = 0 },
		"negative users":               func(c *Config) { c.Users = -1 },
		"strategy without partitions":  func(c *Config) { c.Strategy = strategy.PredictedMean },
		"unknown strategy, unsplit":    func(c *Config) { c.Strategy = "no-such" },
		"unknown strategy, bad split":  func(c *Config) { c.Hosts, c.Partitions, c.Strategy = 7, 2, "no-such" },
		"unknown strategy, even split": func(c *Config) { c.Partitions, c.Strategy = 2, "no-such" },
		"hosts not divisible":          func(c *Config) { c.Hosts, c.Partitions = 7, 2 },
	}
	for name, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: accepted", name)
		}
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
	cfg := DefaultConfig()
	cfg.Users, cfg.GrantPerUser = 2, 7*bank.Credit
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Users) != 2 || b.Users[1].Name != "user2" {
		t.Fatalf("configured users = %v", b.Users)
	}
	if bal, err := b.Bank.Balance(b.Users[1].Account); err != nil || bal != 7*bank.Credit {
		t.Errorf("user2 balance = %v, %v", bal, err)
	}
	u, err := b.CreateUser("alice", 100*bank.Credit)
	if err != nil {
		t.Fatal(err)
	}
	if u.Account != "alice" || len(b.Users) != 3 || b.Users[2] != u {
		t.Errorf("account = %v, users = %v", u.Account, b.Users)
	}
	if bal, err := b.Bank.Balance(u.Account); err != nil || bal != 100*bank.Credit {
		t.Errorf("balance = %v, %v", bal, err)
	}
	if _, err := b.CreateUser("alice", 0); !errors.Is(err, bank.ErrDuplicateAccount) {
		t.Errorf("duplicate: %v", err)
	}
	if _, err := b.CreateUser("", 0); err == nil {
		t.Error("empty name accepted")
	}
	if len(b.Users) != 3 {
		t.Errorf("rejected users were kept: %v", b.Users)
	}
	if _, err := b.MintToken(u, 101*bank.Credit); err == nil {
		t.Error("a token for more than the account holds was minted")
	}
}

// TestSeedNamesTheKeys: a seeded world draws every key from the seed, in the
// same order whatever is built on top; an unseeded one draws fresh keys.
func TestSeedNamesTheKeys(t *testing.T) {
	keys := func(seed int64, partitions int) string {
		cfg := DefaultConfig()
		cfg.Seed, cfg.Users, cfg.Partitions = seed, 2, partitions
		b, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		late, err := b.CreateUser("late", 0)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%x %x %x %x", b.CA.Certificate().PublicKey, b.Bank.PublicKey(),
			b.Users[1].BankKey.Public(), late.Identity.Public())
	}
	if a, b := keys(11, 1), keys(11, 2); a != b {
		t.Errorf("seed 11 named different keys under 1 and 2 partitions:\n%s\n%s", a, b)
	}
	if a, b := keys(11, 1), keys(12, 1); a == b {
		t.Error("seeds 11 and 12 named the same keys")
	}
	if a, b := keys(0, 1), keys(0, 1); a == b {
		t.Error("two unseeded worlds drew the same keys")
	}
}

func TestEndToEndJobThroughBox(t *testing.T) {
	b := newBox(t)
	alice, mint := fund(t, b, "alice", 500*bank.Credit)
	tok := mint(50 * bank.Credit)
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
	bal, _ := b.Bank.Balance(alice.Account)
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
	alice, mint := fund(t, b, "alice", 100*bank.Credit)
	tok := mint(10 * bank.Credit)
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
	if bal, _ := b.Bank.Balance(alice.Account); bal != 90*bank.Credit {
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
	_, mint := fund(t, b, "alice", 500*bank.Credit)
	b.Engine.RunFor(30 * time.Minute) // accrue price history for the predictor
	tok := mint(50 * bank.Credit)
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

// Single-partition boxes must not construct a meta.
func TestUnpartitionedBoxIsABareManager(t *testing.T) {
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
	_, mint := fund(t, b, "alice", 500*bank.Credit)
	b.Engine.RunFor(30 * time.Minute)
	// The handles were attached when the box was built, so they have seen
	// every clear: the forecast is ready, not the current-price fallback.
	if _, err := b.Agent.ForecastHandle()(cfg.Horizon); err != nil {
		t.Fatalf("partition 0 forecast after 30 min: %v", err)
	}
	xrsl := fmt.Sprintf(
		"&(executable=scan.sh)(count=2)(cputime=10)(walltime=120)(transfertoken=%s)", mint(50*bank.Credit))
	if _, err := b.Scheduler().Submit(xrsl, nil); err != nil {
		t.Fatal(err)
	}
	if spied.picks != 1 || spied.noHandle != 0 || spied.histReads != 0 {
		t.Errorf("picks %d, candidates without a handle %d, histories read %d; want 1, 0, 0",
			spied.picks, spied.noHandle, spied.histReads)
	}
}

// TestEveryAxisComposes builds a world no constructor could before there was
// one: two partitions under predicted-mean, markets cleared by two shards at
// a posted price, the broker's spent-token set on disk. A job runs to
// FINISHED leaving its sub-account empty and the money supply whole, and
// after a restart — same seed, so the same bank and CA keys, and the spent
// log reopened — the token it was paid with is still refused.
func TestEveryAxisComposes(t *testing.T) {
	dir := t.TempDir()
	boot := func() (*Box, *durable.Store) {
		st, err := durable.Open(dir, durable.Options{Sync: durable.SyncNone})
		if err != nil {
			t.Fatal(err)
		}
		spent, err := token.NewDurableSpentStore(st, 0)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.Seed, cfg.Users, cfg.GrantPerUser = 21, 1, 500*bank.Credit
		cfg.Partitions, cfg.Strategy, cfg.Horizon = 2, strategy.PredictedMean, 10*time.Minute
		cfg.Shards, cfg.Mechanism, cfg.SpentStore = 2, mechanism.PostedPrice, spent
		b, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return b, st
	}
	submit := func(b *Box, tok string) *arc.GridJob {
		gj, err := b.Scheduler().Submit(fmt.Sprintf(
			"&(executable=scan.sh)(count=2)(cputime=10)(walltime=120)(transfertoken=%s)", tok), nil)
		if err != nil {
			t.Fatal(err)
		}
		b.Engine.RunFor(3 * time.Hour)
		return gj
	}

	b, st := boot()
	if b.Meta.Strategy() != strategy.PredictedMean || len(b.Agents) != 2 {
		t.Fatalf("strategy %q over %d agents", b.Meta.Strategy(), len(b.Agents))
	}
	h, err := b.Cluster.Host(b.Agents[1].HostIDs()[0])
	if err != nil || h.Market.MechanismName() != mechanism.PostedPrice {
		t.Fatalf("partition 1 clears by %q (%v)", h.Market.MechanismName(), err)
	}
	b.Engine.RunFor(30 * time.Minute) // price history for the forecasts
	tok, err := b.MintToken(b.Users[0], 50*bank.Credit)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := token.Encode(tok)
	if err != nil {
		t.Fatal(err)
	}
	gj := submit(b, enc)
	if gj.State != arc.StateFinished {
		t.Fatalf("job state = %v (%s)", gj.State, gj.Error)
	}
	if gj.AgentJob.Charged <= 0 {
		t.Error("the finished job was charged nothing")
	}
	if bal, err := b.Bank.Balance(gj.AgentJob.SubAccount); err != nil || bal != 0 {
		t.Errorf("sub-account %s holds %v (%v), want 0", gj.AgentJob.SubAccount, bal, err)
	}
	if got := b.Bank.TotalMoney(); got != 500*bank.Credit {
		t.Errorf("money supply %v, want the 500 granted", got)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	b, st = boot()
	defer st.Close()
	if replay := submit(b, enc); replay.State != arc.StateFailed || !strings.Contains(replay.Error, token.ErrSpent.Error()) {
		t.Errorf("replayed token after restart: job %v (%s), want FAILED as already used", replay.State, replay.Error)
	}
}
