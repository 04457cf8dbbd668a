// Package experiment contains one harness per table and figure of the
// paper's evaluation (§5). Each harness builds the full grid-market stack —
// bank, PKI, per-host auctions, VM managers, the ARC-analog job manager and
// the best-response agent — inside the discrete-event simulator, runs the
// paper's scenario, and reports rows shaped like the paper's artifact.
// See DESIGN.md §4 for the experiment index and expected shapes.
package experiment

import (
	"fmt"
	"time"

	"tycoongrid/internal/agent"
	"tycoongrid/internal/bank"
	"tycoongrid/internal/grid"
	"tycoongrid/internal/pki"
	"tycoongrid/internal/rng"
	"tycoongrid/internal/sim"
	"tycoongrid/internal/token"
	"tycoongrid/internal/trace"
	"tycoongrid/internal/tracing"
	"tycoongrid/internal/workload"
	"tycoongrid/internal/xrsl"
)

// Testbed is what every experiment world stands on: engine, PKI, a bank
// holding the broker account, the started cluster, the broker's token
// verifier and the funded users. On top goes one agent (World) or partitioned
// agents under a meta-scheduler (the strategies experiment).
type Testbed struct {
	Engine  *sim.Engine
	CA      *pki.CA
	Bank    *bank.Bank
	Cluster *grid.Cluster
	Tracer  *tracing.Tracer
	Users   []*GridUser

	broker   *pki.Identity
	verifier *token.Verifier
	src      *rng.Source
	nonce    int
}

// World is the single-agent grid-market testbed.
type World struct {
	*Testbed
	Agent *agent.Agent
}

// GridUser is one simulated grid user with a bank account and identity.
type GridUser struct {
	Name     string
	Identity *pki.Identity // grid identity (DN)
	BankKey  *pki.Identity // bank account key
	Account  bank.AccountID
}

// WorldConfig shapes the testbed.
type WorldConfig struct {
	Hosts        int
	CPUsPerHost  int
	CPUMHz       float64
	MaxVMsPerCPU int // paper: ~15 virtual CPUs per physical node
	Users        int
	GrantPerUser bank.Amount
	ReservePrice float64       // credits/second floor
	Interval     time.Duration // market reallocation period; 0 = the paper's 10 s
	Seed         int64
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
}

// PaperWorld returns the paper's §5.2 setup: 30 dual-processor hosts, five
// competing users.
func PaperWorld() WorldConfig {
	return WorldConfig{
		Hosts:        30,
		CPUsPerHost:  2,
		CPUMHz:       2800,
		MaxVMsPerCPU: 15,
		Users:        5,
		GrantPerUser: 100000 * bank.Credit,
		ReservePrice: 1.0 / 3600, // one credit/hour baseline
		Seed:         2006,
	}
}

// newTestbed assembles the shared part of a world. The seed is consumed in a
// fixed order — CA, bank, broker, then identity and bank key per user — so a
// seed names the same keys whichever world is built on top.
func newTestbed(cfg WorldConfig) (*Testbed, error) {
	if cfg.Hosts <= 0 || cfg.Users <= 0 {
		return nil, fmt.Errorf("experiment: need hosts and users, got %d/%d", cfg.Hosts, cfg.Users)
	}
	eng := sim.NewEngine()
	src := rng.New(cfg.Seed)
	tr := cfg.Tracer
	if tr == nil {
		tr = tracing.Default()
	}
	ca, err := pki.NewDeterministicCA("/O=Grid/CN=TycoonCA", seed32(src), pki.WithTimeSource(eng.Now))
	if err != nil {
		return nil, err
	}
	bankID, err := ca.IssueDeterministic("/CN=Bank", seed32(src))
	if err != nil {
		return nil, err
	}
	brokerID, err := ca.IssueDeterministic("/CN=Broker", seed32(src))
	if err != nil {
		return nil, err
	}
	// Long simulations generate millions of 10-second micro-charges; keep a
	// bounded audit window rather than the full ledger.
	b := bank.New(bankID, eng, bank.WithLedgerRetention(100_000), bank.WithTracer(tr))
	if _, err := b.CreateAccount("broker", brokerID.Public()); err != nil {
		return nil, err
	}

	specs := make([]grid.HostSpec, cfg.Hosts)
	for i := range specs {
		specs[i] = grid.HostSpec{
			ID:              fmt.Sprintf("h%02d", i),
			Site:            site(i),
			CPUs:            cfg.CPUsPerHost,
			CPUMHz:          cfg.CPUMHz,
			MaxVMs:          cfg.MaxVMsPerCPU * cfg.CPUsPerHost,
			CreateOverhead:  cfg.CreateOverhead,
			InstallOverhead: cfg.InstallOverhead,
			VirtOverhead:    cfg.VirtOverhead,
		}
	}
	cluster, err := grid.New(eng, grid.Config{
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
	if err := cluster.Start(); err != nil {
		return nil, err
	}
	// One verifier per testbed: its replay cache must be shared by every agent
	// paid through the broker account, or a token could be redeemed once per
	// partition.
	verifier, err := token.NewVerifier(b.PublicKey(), ca.Certificate(), "broker", nil)
	if err != nil {
		return nil, err
	}

	tb := &Testbed{
		Engine: eng, CA: ca, Bank: b, Cluster: cluster, Tracer: tr,
		broker: brokerID, verifier: verifier, src: src,
	}
	for i := 0; i < cfg.Users; i++ {
		name := fmt.Sprintf("user%d", i+1)
		id, err := ca.IssueDeterministic(pki.DN("/O=Grid/OU=KTH/CN="+name), seed32(src))
		if err != nil {
			return nil, err
		}
		key, err := ca.IssueDeterministic(pki.DN("/CN="+name+"-bankkey"), seed32(src))
		if err != nil {
			return nil, err
		}
		if _, err := b.CreateAccount(bank.AccountID(name), key.Public()); err != nil {
			return nil, err
		}
		if err := b.Deposit(bank.AccountID(name), cfg.GrantPerUser, "allocation"); err != nil {
			return nil, err
		}
		tb.Users = append(tb.Users, &GridUser{
			Name: name, Identity: id, BankKey: key, Account: bank.AccountID(name),
		})
	}
	return tb, nil
}

// NewWorld assembles the stack: the testbed and one agent scheduling onto the
// whole cluster.
func NewWorld(cfg WorldConfig) (*World, error) {
	tb, err := newTestbed(cfg)
	if err != nil {
		return nil, err
	}
	ag, err := agent.New(agent.Config{
		Cluster: tb.Cluster, Bank: tb.Bank, Identity: tb.broker, Account: "broker",
		Verifier: tb.verifier, Tracer: tb.Tracer,
	})
	if err != nil {
		return nil, err
	}
	return &World{Testbed: tb, Agent: ag}, nil
}

// recordPrices attaches an unbounded trace.Recorder series to every host
// market, for the experiments that read a whole run's prices afterwards
// (RunLoad, the strategies volatility column); no other world keeps one.
func (tb *Testbed) recordPrices() (*trace.Recorder, error) {
	rec := trace.NewRecorder()
	for _, id := range tb.Cluster.HostIDs() {
		h, err := tb.Cluster.Host(id)
		if err != nil {
			return nil, err
		}
		h.Market.Observe(rec.Observer(id))
	}
	return rec, nil
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

func site(i int) string {
	sites := []string{"hplabs", "intel-oregon", "singapore", "sics"}
	return sites[i%len(sites)]
}

// MintToken pays credits from user to the broker and returns the attached
// transfer token.
func (tb *Testbed) MintToken(u *GridUser, amount bank.Amount) (token.Token, error) {
	tb.nonce++
	req := bank.TransferRequest{
		From: u.Account, To: "broker", Amount: amount,
		Nonce: fmt.Sprintf("%s-t%05d", u.Name, tb.nonce),
	}
	req.Sig = u.BankKey.Sign(req.SigningBytes())
	r, err := tb.Bank.Transfer(req)
	if err != nil {
		return token.Token{}, err
	}
	return token.Attach(r, u.Identity), nil
}

// SubmitApp submits the paper's bioinformatics application for user u:
// subJobs chunks of chunkMinutes CPU time each, on at most maxNodes
// concurrent VMs, funded with budget until deadline.
func (w *World) SubmitApp(u *GridUser, budget bank.Amount, deadline time.Duration,
	subJobs int, chunkMinutes float64, maxNodes int) (*agent.Job, error) {
	tok, err := w.MintToken(u, budget)
	if err != nil {
		return nil, err
	}
	jr := &xrsl.JobRequest{
		JobName:     "proteome-scan-" + u.Name,
		Executable:  "scan.sh",
		Count:       maxNodes,
		WallTime:    deadline,
		RuntimeEnvs: []string{"APPS/BIO/BLAST-2.0"},
	}
	chunks := make([]float64, subJobs)
	for i := range chunks {
		chunks[i] = chunkMinutes * 60 * workload.ReferenceMHz
	}
	return w.Agent.Submit(tok, jr, chunks)
}
