// Package box is the one place the grid market is assembled — PKI, bank,
// cluster, best-response agent(s), ARC job manager(s) — into one
// self-contained world ("grid market in a box"). cmd/gridmarketd serves it
// over HTTP with the simulation engine driven along the wall clock;
// internal/experiment runs the paper's scenarios on it; integration tests
// drive the engine directly.
//
// For demonstration purposes the box also acts as an identity/escrow
// provider: CreateUser mints a funded bank account plus a Grid certificate
// and keeps the keys in the process, and MintToken pays the broker on the
// user's behalf. Production deployments keep both keys on the user's machine
// (see examples/quickstart for the local-key flow); the demo path exists so
// `curl` alone can exercise the full market.
package box

import (
	"errors"
	"fmt"
	"time"

	"tycoongrid/internal/agent"
	"tycoongrid/internal/arc"
	"tycoongrid/internal/bank"
	"tycoongrid/internal/grid"
	"tycoongrid/internal/pki"
	"tycoongrid/internal/rng"
	"tycoongrid/internal/sim"
	"tycoongrid/internal/strategy"
	"tycoongrid/internal/token"
	"tycoongrid/internal/tracing"
)

// Config shapes the world.
type Config struct {
	Hosts        int
	CPUsPerHost  int
	CPUMHz       float64
	MaxVMsPerCPU int // paper: ~15 virtual CPUs per physical node; 0 = 15
	Users        int // funded users user1..userN created up front
	GrantPerUser bank.Amount
	ReservePrice float64       // credits/second floor
	Interval     time.Duration // market reallocation period; 0 = the paper's 10 s
	// Seed keys the world: CA, bank, broker and every user's identity and
	// bank key are drawn from it in that order, so a seed names the same keys
	// whatever is built on top. 0 draws the keys from crypto/rand.
	Seed  int64
	Start time.Time // engine start; zero = sim.Epoch
	// VM overheads; zero means instant (exact arithmetic in analyses).
	CreateOverhead  time.Duration
	InstallOverhead time.Duration
	VirtOverhead    float64
	// PurgeIdleAfter destroys VMs idle longer than this (0 = never). Long
	// many-job scenarios must set it: every job bids under its own
	// sub-account, so finished jobs' VMs are never reused and would
	// otherwise accumulate until the host's VM limit starves new work.
	PurgeIdleAfter time.Duration
	// Tracer scopes every span this world's services emit. Nil means the
	// process-wide tracing.Default(); replication workers inject a private
	// (and usually unsampled) tracer so concurrent worlds share nothing.
	Tracer *tracing.Tracer
	// Shards is the number of goroutines the cluster clears its host markets
	// on each tick (see grid.Config.Shards). Parallelism only: every outcome
	// of a world is the same at every value.
	Shards int
	// Mechanism selects the host markets' clearing rule (see
	// internal/mechanism); empty = proportional share.
	Mechanism string
	// StageInTime and StageOutTime model data transfer per staged file.
	StageInTime  time.Duration
	StageOutTime time.Duration
	ClusterName  string
	// Partitions > 1 splits the hosts evenly across that many agent/manager
	// pairs under an arc.Meta whose matchmaking Strategy routes each
	// submitted job (see internal/strategy for the registry). Hosts must be
	// divisible by Partitions.
	Partitions int
	Strategy   string        // "" = the meta default (current-price); needs Partitions > 1
	Horizon    time.Duration // forecast horizon for prediction strategies
	// SpentStore overrides the broker verifier's double-spend set; nil keeps
	// the in-memory default. Daemons pass a token.DurableSpentStore so spent
	// transfer ids survive restarts.
	SpentStore token.SpentStore
}

// DefaultConfig returns a small but real market.
func DefaultConfig() Config {
	return Config{
		Hosts:        8,
		CPUsPerHost:  2,
		CPUMHz:       2800,
		ReservePrice: 1.0 / 3600,
		ClusterName:  "tycoon-box",
	}
}

// User is one grid user with a bank account and identity; the keys live
// inside the box.
type User struct {
	Name     string
	Identity *pki.Identity // grid identity (DN)
	BankKey  *pki.Identity // bank account key
	Account  bank.AccountID
}

// Box is the assembled world. Agents holds one agent per partition (one in
// all when unpartitioned); Agent and Manager are the first partition's pair
// and Meta spans all of them, nil when unpartitioned.
type Box struct {
	Engine  *sim.Engine
	CA      *pki.CA
	Bank    *bank.Bank
	Cluster *grid.Cluster
	Users   []*User
	Agents  []*agent.Agent
	Agent   *agent.Agent
	Manager *arc.Manager
	Meta    *arc.Meta
	// Src is the seed's stream, positioned after the key draws so far;
	// scenarios split their workload streams off it.
	Src *rng.Source

	seeded bool
	nonce  int
}

// Scheduler returns the job-scheduling front door: the strategy-driven Meta
// when the box is partitioned, otherwise the single Manager.
func (b *Box) Scheduler() arc.Scheduler {
	if b.Meta != nil {
		return b.Meta
	}
	return b.Manager
}

// New assembles a world whose agents keep the default price history.
func New(cfg Config) (*Box, error) { return NewWindowed(cfg, 0) }

// NewWindowed is New with the agents' price rings — the trailing history, in
// market ticks, that forecasts and the portfolio covariance see — sized to
// window (0 = pricefeed.DefaultCapacity). The whole configuration is checked
// before anything is built.
func NewWindowed(cfg Config, window int) (*Box, error) {
	if cfg.Hosts < 1 || cfg.CPUsPerHost < 1 || cfg.CPUMHz <= 0 {
		return nil, fmt.Errorf("box: bad cluster shape %d x %d x %v", cfg.Hosts, cfg.CPUsPerHost, cfg.CPUMHz)
	}
	if cfg.Users < 0 || cfg.GrantPerUser < 0 {
		return nil, fmt.Errorf("box: bad users %d x %v", cfg.Users, cfg.GrantPerUser)
	}
	parts := cfg.Partitions
	if parts < 1 {
		parts = 1
	}
	if cfg.Hosts%parts != 0 {
		return nil, fmt.Errorf("box: %d hosts not divisible into %d partitions", cfg.Hosts, parts)
	}
	var strat strategy.Strategy
	if cfg.Strategy != "" {
		if parts == 1 {
			return nil, fmt.Errorf("box: strategy %q needs more than one partition to choose from", cfg.Strategy)
		}
		var err error
		if strat, err = strategy.New(cfg.Strategy, strategy.Config{Horizon: cfg.Horizon, Window: window}); err != nil {
			return nil, err
		}
	}

	eng := sim.NewEngine()
	if !cfg.Start.IsZero() {
		eng = sim.NewEngineAt(cfg.Start)
	}
	tr := cfg.Tracer
	if tr == nil {
		tr = tracing.Default()
	}
	b := &Box{Engine: eng, Src: rng.New(cfg.Seed), seeded: cfg.Seed != 0}
	var err error
	if b.seeded {
		b.CA, err = pki.NewDeterministicCA("/O=Grid/CN=TycoonCA", seed32(b.Src), pki.WithTimeSource(eng.Now))
	} else {
		b.CA, err = pki.NewCA("/O=Grid/CN=TycoonCA", pki.WithTimeSource(eng.Now))
	}
	if err != nil {
		return nil, err
	}
	bankID, err := b.issue("/CN=Bank")
	if err != nil {
		return nil, err
	}
	broker, err := b.issue("/CN=Broker")
	if err != nil {
		return nil, err
	}
	// Long runs generate millions of 10-second micro-charges; keep a bounded
	// audit window rather than the full ledger.
	b.Bank = bank.New(bankID, eng, bank.WithLedgerRetention(100_000), bank.WithTracer(tr))
	if _, err := b.Bank.CreateAccount("broker", broker.Public()); err != nil {
		return nil, err
	}

	specs := make([]grid.HostSpec, cfg.Hosts)
	for i := range specs {
		specs[i] = grid.HostSpec{
			ID:              fmt.Sprintf("h%02d", i),
			Site:            sites[i%len(sites)],
			CPUs:            cfg.CPUsPerHost,
			CPUMHz:          cfg.CPUMHz,
			MaxVMs:          cfg.MaxVMsPerCPU * cfg.CPUsPerHost,
			CreateOverhead:  cfg.CreateOverhead,
			InstallOverhead: cfg.InstallOverhead,
			VirtOverhead:    cfg.VirtOverhead,
		}
	}
	b.Cluster, err = grid.New(eng, grid.Config{
		Hosts:          specs,
		ReservePrice:   cfg.ReservePrice,
		Interval:       cfg.Interval,
		PurgeIdleAfter: cfg.PurgeIdleAfter,
		Tracer:         tr,
		Shards:         cfg.Shards,
		Mechanism:      cfg.Mechanism,
	})
	if err != nil {
		return nil, err
	}
	if err := b.Cluster.Start(); err != nil {
		return nil, err
	}
	// One verifier for all partitions: replay protection must be global, or
	// the same token could be redeemed once per partition agent.
	verifier, err := token.NewVerifier(b.Bank.PublicKey(), b.CA.Certificate(), "broker", cfg.SpentStore)
	if err != nil {
		return nil, err
	}
	for i := 0; i < cfg.Users; i++ {
		if _, err := b.CreateUser(fmt.Sprintf("user%d", i+1), cfg.GrantPerUser); err != nil {
			return nil, err
		}
	}

	// The partition step: one agent + manager pair per host subset, all
	// sharing the ONE broker identity, account and verifier, so a token pays
	// "the grid" and verifies whichever partition matchmaking picks.
	per := cfg.Hosts / parts
	managers := make([]*arc.Manager, parts)
	b.Agents = make([]*agent.Agent, parts)
	for i := range managers {
		acfg := agent.Config{
			Cluster: b.Cluster, Bank: b.Bank, Identity: broker, Account: "broker",
			Verifier: verifier, FeedCapacity: window,
		}
		name := cfg.ClusterName
		if parts > 1 {
			acfg.Hosts = make([]string, per)
			for j := range acfg.Hosts {
				acfg.Hosts[j] = specs[i*per+j].ID
			}
			// Shared broker account: distinct prefixes keep the per-job
			// sub-accounts (broker/p0-0001, ...) collision-free.
			acfg.JobIDPrefix = fmt.Sprintf("p%d", i)
			name = acfg.JobIDPrefix
			if cfg.ClusterName != "" {
				name = cfg.ClusterName + "-" + name
			}
		}
		if b.Agents[i], err = agent.New(acfg); err != nil {
			return nil, err
		}
		managers[i], err = arc.New(arc.Config{
			ClusterName: name, Agent: b.Agents[i], Tracer: tr,
			StageInTime: cfg.StageInTime, StageOutTime: cfg.StageOutTime,
		})
		if err != nil {
			return nil, err
		}
	}
	b.Agent, b.Manager = b.Agents[0], managers[0]
	if parts > 1 {
		// Before the first clear: NewMeta attaches every agent's predictors.
		if b.Meta, err = arc.NewMeta(managers...); err != nil {
			return nil, err
		}
		if strat != nil {
			b.Meta.SetStrategy(strat, cfg.Horizon)
		}
	}
	return b, nil
}

var sites = []string{"hplabs", "intel-oregon", "singapore", "sics"}

// issue draws the next identity: from the seed's stream in a seeded world,
// from crypto/rand otherwise.
func (b *Box) issue(dn pki.DN) (*pki.Identity, error) {
	if b.seeded {
		return b.CA.IssueDeterministic(dn, seed32(b.Src))
	}
	return b.CA.Issue(dn)
}

func seed32(src *rng.Source) [32]byte {
	var s [32]byte
	for i := 0; i < 4; i++ {
		v := src.Int63()
		for j := 0; j < 8; j++ {
			s[i*8+j] = byte(v >> (8 * j))
		}
	}
	return s
}

// CreateUser mints a funded user: a Grid identity, a bank key and an account
// named after the user holding grant.
func (b *Box) CreateUser(name string, grant bank.Amount) (*User, error) {
	if name == "" {
		return nil, errors.New("box: empty user name")
	}
	id, err := b.issue(pki.DN("/O=Grid/OU=KTH/CN=" + name))
	if err != nil {
		return nil, err
	}
	key, err := b.issue(pki.DN("/CN=" + name + "-bankkey"))
	if err != nil {
		return nil, err
	}
	u := &User{Name: name, Identity: id, BankKey: key, Account: bank.AccountID(name)}
	if _, err := b.Bank.CreateAccount(u.Account, key.Public()); err != nil {
		return nil, err
	}
	if grant > 0 {
		if err := b.Bank.Deposit(u.Account, grant, "allocation"); err != nil {
			return nil, err
		}
	}
	b.Users = append(b.Users, u)
	return u, nil
}

// MintToken pays amount from u to the broker and returns the attached
// transfer token; token.Encode makes it an xRSL transfertoken attribute.
func (b *Box) MintToken(u *User, amount bank.Amount) (token.Token, error) {
	b.nonce++
	req := bank.TransferRequest{
		From: u.Account, To: "broker", Amount: amount,
		Nonce: fmt.Sprintf("%s-t%05d", u.Name, b.nonce),
	}
	req.Sig = u.BankKey.Sign(req.SigningBytes())
	r, err := b.Bank.Transfer(req)
	if err != nil {
		return token.Token{}, err
	}
	return token.Attach(r, u.Identity), nil
}
