// Package agent implements the paper's scheduling agent (§2.3, §3): the
// resource-broker side of the Grid market integration. The agent verifies a
// job's transfer token, creates a funded sub-account, runs the Best Response
// algorithm to distribute bids over candidate hosts, creates virtual
// machines by starting tasks, monitors sub-jobs, supports performance
// boosting with additional funds, and refunds unspent balances when the job
// completes — "job stage-in, execution, monitoring, performance boosting (by
// adding funds) and stage-out are all handled by the agent".
package agent

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"tycoongrid/internal/auction"
	"tycoongrid/internal/bank"
	"tycoongrid/internal/core"
	"tycoongrid/internal/grid"
	"tycoongrid/internal/marketplane"
	"tycoongrid/internal/mechanism"
	"tycoongrid/internal/pki"
	"tycoongrid/internal/predict"
	"tycoongrid/internal/pricefeed"
	"tycoongrid/internal/sim"
	"tycoongrid/internal/strategy"
	"tycoongrid/internal/token"
	"tycoongrid/internal/tsdb"
	"tycoongrid/internal/xrsl"
)

// JobState is a job's lifecycle state.
type JobState int

// Job lifecycle states.
const (
	StateRunning JobState = iota
	StateDone
	StateFailed
)

// String renders the state.
func (s JobState) String() string {
	switch s {
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	case StateFailed:
		return "failed"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// SubJob tracks one chunk's execution. A chunk whose host crashed is marked
// Failed and its work re-queued; the resubmission appears as a fresh SubJob
// record, so the history of where each attempt ran is preserved.
type SubJob struct {
	Index   int
	Host    string
	TaskID  string
	Started time.Time
	Done    time.Time
	Failed  bool    // host crashed mid-run; chunk was re-queued
	Price   float64 // the host's spot price when the sub-job was placed
	VM      string  // the virtual machine the sub-job runs in
	ReadyAt time.Time
}

// Latency returns the sub-job's wall-clock duration (zero until done).
func (s SubJob) Latency() time.Duration {
	if s.Done.IsZero() {
		return 0
	}
	return s.Done.Sub(s.Started)
}

// Job is one submitted grid task (a batch of sub-jobs).
type Job struct {
	ID         string
	DN         pki.DN
	SubAccount bank.AccountID
	Budget     bank.Amount
	Deadline   time.Time
	Submitted  time.Time
	State      JobState

	Hosts   []string // hosts funded by the best response placement
	Bids    []Bid    // the bids the submission placed, in placement order
	SubJobs []SubJob
	Charged bank.Amount // money actually paid to hosts

	// OnEnd, when set while the job runs, fires once when it ends by itself,
	// after its escrow is released: State is StateDone when the last sub-job
	// completed (the ARC layer starts stage-out), StateFailed when every
	// funded host died or the deadline passed with work outstanding
	// (FailReason says which). Cancel ends a job without it, and a refused
	// submission never runs. It is nil once the job is released.
	OnEnd      func(*Job)
	FailReason string

	chunks  []float64       // remaining chunk sizes (MHz-seconds), FIFO; nil once released
	busy    map[string]bool // host -> has a running sub-job of this job; nil once released
	done    int
	total   int
	endedAt time.Time

	// tab is what each host has charged the job and how much of that the bank
	// has been told, one row a host that ever charged, ascending by host. A
	// tick books its charges here; teardown banks the difference, once, when
	// it releases the job's escrow. Rows are cumulative and outlive both
	// release and a failover that drops the host from Hosts.
	tab []tabRow

	funded     bank.Amount // what the submission's token put in the sub-account
	refunded   bank.Amount // what teardown returned to the broker
	releasedAt time.Time   // when teardown banked the tab and refunded the escrow; zero before
	records    []record    // what the fields above do not keep, at most MaxRecords
	dropped    int         // records past MaxRecords
}

// Bid is one bid a submission placed: the host, the budget, the host's price
// (excluding this job) that Best Response saw, and the spend rate in
// credits/second the market amortizes the budget at.
type Bid struct {
	Host   string
	Amount bank.Amount
	Price  float64
	Rate   float64
}

// Released returns when the job's escrow was released — it completed, failed
// or was cancelled — or the zero time while it runs.
func (j *Job) Released() time.Time { return j.releasedAt }

// tabRow is one host's line on a job's tab. charged - banked is what the
// job's sub-account still owes the host's earnings account.
type tabRow struct {
	host            string
	charged, banked bank.Amount
}

// HostCharge is what one host has charged a job so far.
type HostCharge struct {
	Host    string
	Charged bank.Amount
}

// ChargedByHost breaks Charged down by the host that charged it, ascending by
// host. A host lost to failover keeps its row.
func (j *Job) ChargedByHost() []HostCharge {
	out := make([]HostCharge, len(j.tab))
	for i, row := range j.tab {
		out[i] = HostCharge{Host: row.host, Charged: row.charged}
	}
	return out
}

// unbanked is the job's tab: what it has been charged that the bank has not
// been told yet. Zero once the escrow is released.
func (j *Job) unbanked() bank.Amount {
	var sum bank.Amount
	for _, row := range j.tab {
		sum += row.charged - row.banked
	}
	return sum
}

// book puts one market charge on the job's own books: Charged and the host's
// row of the tab. The bank hears of it at teardown. A charge the escrow
// cannot cover, or one that arrives after the escrow went back to the broker,
// is a bug (market charges never exceed placed bids, and a released job has
// no bid left), as it was when the bank refused such a move.
//
// row is where the caller last found host's row, or -1; book trusts it only
// while the row there is host's, and returns where the row is now.
func (j *Job) book(host string, row int, amount bank.Amount) int {
	if !j.releasedAt.IsZero() {
		panic(fmt.Sprintf("agent: %s charged %v for %s after its escrow was released", host, amount, j.ID))
	}
	j.Charged += amount
	if j.Charged > j.Budget {
		panic(fmt.Sprintf("agent: %s charged %v, its escrow holds %v", j.ID, j.Charged, j.Budget))
	}
	if row < 0 || row >= len(j.tab) || j.tab[row].host != host {
		var found bool
		row, found = slices.BinarySearchFunc(j.tab, host, func(row tabRow, h string) int {
			return strings.Compare(row.host, h)
		})
		if !found {
			// The host's first charge to this job: a job funds at most count
			// hosts, so the tab stays a short slice.
			j.tab = slices.Insert(j.tab, row, tabRow{host: host})
		}
	}
	j.tab[row].charged += amount
	return row
}

// Completed reports how many sub-jobs have finished.
func (j *Job) Completed() int { return j.done }

// Total returns the number of sub-jobs.
func (j *Job) Total() int { return j.total }

// Duration returns submission-to-last-completion wall time (zero while
// running).
func (j *Job) Duration() time.Duration {
	if j.endedAt.IsZero() {
		return 0
	}
	return j.endedAt.Sub(j.Submitted)
}

// MeanLatency returns the average completed sub-job latency.
func (j *Job) MeanLatency() time.Duration {
	var sum time.Duration
	n := 0
	for _, s := range j.SubJobs {
		if !s.Done.IsZero() {
			sum += s.Latency()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / time.Duration(n)
}

// NodesUsed returns the number of distinct hosts that ran sub-jobs.
func (j *Job) NodesUsed() int {
	seen := map[string]bool{}
	for _, s := range j.SubJobs {
		seen[s.Host] = true
	}
	return len(seen)
}

// CostRate returns charged credits per hour of job wall time — the paper's
// "Cost($/h)" column.
func (j *Job) CostRate() float64 {
	d := j.Duration()
	if d <= 0 {
		return 0
	}
	return j.Charged.Credits() / d.Hours()
}

// Ledger is the banking surface the agent needs: account creation, job
// sub-accounts, balance reads and owner-authorized moves. *bank.Bank, the one
// ledger, satisfies it.
type Ledger interface {
	CreateAccount(id bank.AccountID, owner ed25519.PublicKey) (bank.Account, error)
	CreateSubAccount(parent bank.AccountID, child string, owner ed25519.PublicKey) (bank.Account, error)
	Balance(id bank.AccountID) (bank.Amount, error)
	MoveInternal(owner *pki.Identity, from, to bank.AccountID, amount bank.Amount, kind bank.EntryKind, memo string) error
	MoveBatch(owner *pki.Identity, legs []bank.Move, kind bank.EntryKind) error
}

// Config wires an Agent.
type Config struct {
	Cluster  *grid.Cluster
	Bank     Ledger
	Identity *pki.Identity  // broker identity (owns the broker account)
	Account  bank.AccountID // broker bank account tokens pay into
	Verifier *token.Verifier
	// Hosts restricts this agent to a subset of the cluster's hosts — the
	// paper's partitioned-agent deployment ("the agent itself can be
	// replicated and partitioned to pick up a different set of compute
	// nodes", §3). Empty means the whole cluster.
	Hosts []string
	// JobIDPrefix names this agent's jobs ("<prefix>-0001", ...). Partitioned
	// deployments sharing one broker account must use distinct prefixes so
	// their job sub-accounts never collide. Empty means "job", preserving the
	// historical single-agent IDs.
	JobIDPrefix string
	// Window is the agent's forecast window in market ticks: each forecast
	// model's window and the history HistoryHandle returns, which the hosts'
	// market rings hold at least. 0 means pricefeed.DefaultCapacity.
	Window int
}

// Agent is the broker-side scheduler. Not safe for concurrent use; it runs
// inside the simulation's single-threaded event loop.
type Agent struct {
	cfg Config
	// hosts are the partition's hosts, resolved once, aligned with cfg.Hosts;
	// nil for a partition of the whole cluster in its own order, whose i-th
	// host is the cluster's (see host).
	hosts    []*grid.Host
	jobs     map[string]*Job // every job ever submitted, finished ones included
	running  []*Job          // the StateRunning jobs, ascending by ID: what the pump walks
	byBidder map[auction.BidderID]*Job
	seq      int
	pumping  bool // ensurePump armed the pump
	// models holds each partition host's forecast model, aligned with hosts
	// (nil until ForecastHandle is first asked), beside its market's ring.
	models []*predict.StreamAR

	// Price discovery (see discover). ids is the partition in the cluster's
	// canonical order — HostIDs order, ascending, and HostIDs itself for the
	// whole cluster — at each cluster index's position in ids (-1 outside the
	// partition), and stretches cuts ids into maximal stretches of equal
	// capacity and reserve. awake and runs are discover's scratch; runs holds
	// the last submission's candidates.
	ids       []string
	at        []int32
	stretches []stretch
	awake     []int
	runs      []core.Run
	// booked is settle's memo (see settle), ascending by partition position,
	// with an entry only for a host that charged at the last tick: the
	// bidders it charged, in charge order, each with its job (nil: another
	// agent's) and its row on that job's tab. spare is the array the next
	// tick's memo is written to; the two alternate.
	booked, spare []hostMemo
	// cpuMemo holds each host's "cpu <host>" ledger memo, built the first
	// time a tab with that host is banked; every later charge entry of the
	// host shares the string. No tick reads it.
	cpuMemo map[string]string
}

// Errors returned by the agent.
var (
	ErrUnknownJob = errors.New("agent: unknown job")
	ErrJobDone    = errors.New("agent: job already finished")
	ErrNoBudget   = errors.New("agent: token amount too small to fund any host")
	// ErrHoldBack is returned when the job's minhosts threshold (paper
	// §5.3's proposed hold-back policy) cannot be met; the job's funds are
	// refunded in full.
	ErrHoldBack = errors.New("agent: best response funded fewer hosts than minhosts")
)

// New creates an agent and installs its settle and host-failure hooks on the
// cluster.
func New(cfg Config) (*Agent, error) {
	if cfg.Cluster == nil || cfg.Bank == nil || cfg.Identity == nil || cfg.Verifier == nil {
		return nil, errors.New("agent: incomplete configuration")
	}
	if cfg.Account == "" {
		return nil, errors.New("agent: empty broker account")
	}
	if cfg.JobIDPrefix == "" {
		cfg.JobIDPrefix = "job"
	}
	if cfg.Window <= 0 {
		cfg.Window = pricefeed.DefaultCapacity
	}
	a := &Agent{
		cfg:      cfg,
		jobs:     make(map[string]*Job),
		byBidder: make(map[auction.BidderID]*Job),
		cpuMemo:  make(map[string]string),
		at:       make([]int32, cfg.Cluster.NumHosts()),
	}
	// A cluster's host set is fixed at construction, so the partition is
	// resolved once here and walked as a slice afterwards. The whole cluster
	// in its own order is the cluster's ids and hosts, looked up by index.
	if all := cfg.Cluster.SharedHostIDs(); len(cfg.Hosts) == 0 || slices.Equal(cfg.Hosts, all) {
		a.cfg.Hosts, a.ids = all, all
		for g := range a.at {
			a.at[g] = int32(g)
		}
	} else {
		a.hosts = make([]*grid.Host, len(cfg.Hosts))
		for g := range a.at {
			a.at[g] = -1
		}
		for i, id := range cfg.Hosts {
			h, err := cfg.Cluster.Host(id)
			if err != nil {
				return nil, fmt.Errorf("agent: partition host %q: %w", id, err)
			}
			if a.at[h.Index()] >= 0 {
				return nil, fmt.Errorf("agent: partition names host %q twice", id)
			}
			a.at[h.Index()] = int32(i)
			a.hosts[i] = h
		}
	}
	a.index()
	// Charges reach the bank only when a job's escrow is released, so the
	// earnings account exists from the start rather than from the first
	// release.
	if _, err := cfg.Bank.CreateAccount(earningsAccount, cfg.Identity.Public()); err != nil &&
		!errors.Is(err, bank.ErrDuplicateAccount) {
		return nil, fmt.Errorf("agent: creating earnings account: %w", err)
	}
	// Route market charges to the jobs' tabs (and from there, at release, to
	// bank moves: sub-account -> host earnings). Chain rather than replace
	// any existing hook, so replicated agents
	// (paper §3: "the agent itself can be replicated and partitioned") can
	// share one cluster — each ignores bidders it does not manage.
	if prev := cfg.Cluster.OnSettle; prev != nil {
		cfg.Cluster.OnSettle = func(cleared []marketplane.TickResult) {
			prev(cleared)
			a.settle(cleared)
		}
	} else {
		cfg.Cluster.OnSettle = a.settle
	}
	// Subscribe to host failures the same way, so killed chunks are
	// resubmitted and freed escrow re-bid on surviving hosts.
	if prev := cfg.Cluster.OnHostFailure; prev != nil {
		cfg.Cluster.OnHostFailure = func(f grid.HostFailure) {
			prev(f)
			a.onHostFailure(f)
		}
	} else {
		cfg.Cluster.OnHostFailure = a.onHostFailure
	}
	return a, nil
}

// stretch is a maximal stretch of the partition, in canonical order, whose
// hosts share a capacity and a reserve price: it ends before position end.
type stretch struct {
	end               int
	capacity, reserve float64
}

// index lays the partition out for discover. On entry a.at holds, at each
// cluster index of a listed partition, that host's position in cfg.Hosts; on
// return, its position in ids. A partition given in canonical order (box's
// partitions) then keeps its ids once, as cfg.Hosts. The whole cluster's
// partition is laid out already: its ids are the cluster's and a.at is the
// identity.
func (a *Agent) index() {
	if a.hosts != nil {
		a.ids = make([]string, 0, len(a.hosts))
		for g, i := range a.at {
			if i >= 0 {
				a.at[g] = int32(len(a.ids))
				a.ids = append(a.ids, a.hosts[i].Spec.ID)
			}
		}
		if slices.Equal(a.ids, a.cfg.Hosts) {
			a.cfg.Hosts = a.ids
		}
	}
	for g, p := range a.at {
		if p < 0 {
			continue
		}
		h := a.cfg.Cluster.HostAt(g)
		c, r := h.Market.CapacityMHz(), h.Market.ReservePrice()
		if n := len(a.stretches); n > 0 && a.stretches[n-1].capacity == c && a.stretches[n-1].reserve == r {
			a.stretches[n-1].end++
			continue
		}
		a.stretches = append(a.stretches, stretch{end: int(p) + 1, capacity: c, reserve: r})
	}
}

// host returns the partition's i-th host, in cfg.Hosts order: the cluster's
// own i-th for a partition of the whole cluster, which lists none.
func (a *Agent) host(i int) *grid.Host {
	if a.hosts == nil {
		return a.cfg.Cluster.HostAt(i)
	}
	return a.hosts[i]
}

// bookedBidder is one entry of settle's memo: a bidder, the job it is (nil if
// this agent does not manage it), and the row of the host on that job's tab.
type bookedBidder struct {
	bidder auction.BidderID
	job    *Job
	row    int
}

// hostMemo is settle's memo of one host, at partition position pos.
type hostMemo struct {
	pos     int32
	bidders []bookedBidder
}

// earningsAccount is where every host's charges are paid.
const earningsAccount bank.AccountID = "grid-earnings"

// settle books a tick's market charges: every charge of a bidder this agent
// manages, host by host and bidder by bidder, goes on its job's tab. No money
// moves and the bank is not called; teardown banks a job's tab when it
// releases the job's escrow.
//
// A host outside the partition is passed over at once: no bidder of this
// agent's bids there. On a host of the partition a busy market charges the
// same bidders tick after tick, in the same order, so the k-th charge is
// checked against the bidder the memo holds at k — one pointer compare while
// the book is unchanged, since both strings share the bid's backing — and only
// a bidder that differs is looked up in byBidder, the source of truth. A
// bidder maps to one job for good (byBidder only grows, and a job's bidder is
// registered before its bids can clear), so a matching entry is exact.
//
// The memo holds the hosts that charged at the last tick, ascending by
// position as the cleared hosts are, so one merge walk finds each host's and
// writes this tick's: a host that charged nothing drops out, and one that
// charges again starts a fresh memo.
func (a *Agent) settle(cleared []marketplane.TickResult) {
	var booked bank.Amount
	last, memos := a.booked, a.spare[:0]
	j := 0 // the first of last's memos not yet passed
	for i := range cleared {
		r := &cleared[i]
		p := a.at[r.Index]
		if p < 0 || len(r.Charges) == 0 {
			continue
		}
		for j < len(last) && last[j].pos < p {
			j++
		}
		var memo []bookedBidder
		if j < len(last) && last[j].pos == p {
			memo = last[j].bidders
			j++
		}
		for k, ch := range r.Charges {
			if k == len(memo) {
				memo = append(memo, bookedBidder{})
			}
			e := &memo[k]
			if e.bidder != ch.Bidder {
				*e = bookedBidder{bidder: ch.Bidder, job: a.byBidder[ch.Bidder], row: -1}
			}
			if e.job == nil {
				continue // bidder not managed by this agent
			}
			e.row = e.job.book(r.Host, e.row, ch.Amount)
			booked += ch.Amount
		}
		memos = append(memos, hostMemo{pos: p, bidders: memo})
	}
	clear(last) // the memos of hosts that charged nothing go
	a.booked, a.spare = memos, last[:0]
	if booked > 0 {
		mUnbanked.Add(booked.Credits())
	}
}

// bankTab tells the bank what job's tab holds: one batch of one charge leg a
// host with something unbanked, ascending by host, job sub-account to host
// earnings.
func (a *Agent) bankTab(job *Job) {
	due := job.unbanked()
	if due == 0 {
		return
	}
	legs := make([]bank.Move, 0, len(job.tab))
	for i := range job.tab {
		row := &job.tab[i]
		if row.charged == row.banked {
			continue
		}
		memo, ok := a.cpuMemo[row.host]
		if !ok {
			memo = "cpu " + row.host
			a.cpuMemo[row.host] = memo
		}
		legs = append(legs, bank.Move{From: job.SubAccount, To: earningsAccount,
			Amount: row.charged - row.banked, Memo: memo})
		row.banked = row.charged
	}
	if err := a.cfg.Bank.MoveBatch(a.cfg.Identity, legs, bank.EntryCharge); err != nil {
		// The sub-account holds the full verified budget and book refuses a
		// charge past it, so this indicates an internal bug.
		panic(fmt.Sprintf("agent: banking %s's tab of %d hosts: %v", job.ID, len(legs), err))
	}
	mUnbanked.Add(-due.Credits())
}

// Submit verifies tok, funds a sub-account, distributes bids with Best
// Response, and starts the job's sub-jobs. chunkWork lists each sub-job's
// size in MHz-seconds; jr.Count caps concurrent hosts. A submission refused
// after its sub-account was funded (no bid could be placed, or the hold-back
// policy) returns the error together with the unwound job, whose timeline
// records the funding and the refund.
func (a *Agent) Submit(tok token.Token, jr *xrsl.JobRequest, chunkWork []float64) (*Job, error) {
	if jr == nil || len(chunkWork) == 0 {
		return nil, errors.New("agent: empty job")
	}
	now := a.cfg.Cluster.Engine().Now()
	amount, err := a.cfg.Verifier.Verify(tok, now)
	if err != nil {
		mTokenRejections.Inc()
		return nil, fmt.Errorf("agent: token rejected: %w", err)
	}
	mTokenRedemptions.Inc()

	a.seq++
	jobID := fmt.Sprintf("%s-%04d", a.cfg.JobIDPrefix, a.seq)
	sub, err := a.cfg.Bank.CreateSubAccount(a.cfg.Account, jobID, a.cfg.Identity.Public())
	if err != nil {
		return nil, fmt.Errorf("agent: sub-account: %w", err)
	}
	if err := a.cfg.Bank.MoveInternal(a.cfg.Identity, a.cfg.Account, sub.ID, amount,
		bank.EntryTransfer, "fund "+jobID); err != nil {
		return nil, fmt.Errorf("agent: funding sub-account: %w", err)
	}

	deadline := now.Add(jr.Deadline())
	job := &Job{
		ID:         jobID,
		DN:         tok.GridDN,
		SubAccount: sub.ID,
		Budget:     amount,
		Deadline:   deadline,
		Submitted:  now,
		State:      StateRunning,
		chunks:     append([]float64(nil), chunkWork...),
		busy:       make(map[string]bool),
		total:      len(chunkWork),
		funded:     amount,
	}

	if err := a.placeBids(job, jr.Count, jr.MinHosts); err != nil {
		a.unwind(job)
		return job, err
	}
	// The paper's hold-back policy: if the market is too expensive to fund
	// the required number of hosts, do not start at all — refund instead of
	// delivering degraded QoS.
	if funded := len(job.Hosts); jr.MinHosts > 0 && funded < jr.MinHosts {
		a.unwind(job) // clears job.Hosts
		return job, fmt.Errorf("%w: funded %d, need %d", ErrHoldBack, funded, jr.MinHosts)
	}
	a.jobs[jobID] = job
	a.byBidder[auction.BidderID(sub.ID)] = job
	at, _ := a.runningIndex(jobID)
	a.running = slices.Insert(a.running, at, job)

	// Launch the first wave: one sub-job per funded host. Hosts whose VM
	// slots are all taken right now are fine — the pump ticker retries
	// queued chunks every reallocation interval.
	a.startQueued(job)
	a.ensurePump()
	return job, nil
}

// ensurePump starts the retry ticker that re-attempts queued chunks (e.g.
// after a host's VM limit rejected them) once per reallocation interval, and
// enforces deadlines: a job past its deadline with work outstanding can
// never finish (its bids have expired, so tasks run at zero share), so it is
// failed and refunded rather than left running forever.
func (a *Agent) ensurePump() {
	if a.pumping {
		return
	}
	err := a.cfg.Cluster.Engine().Every(a.cfg.Cluster.Interval(), func() {
		now := a.cfg.Cluster.Engine().Now()
		// Walk a snapshot: failing a job retires it from a.running, and its
		// OnEnd callback may submit another.
		for _, job := range slices.Clone(a.running) {
			if job.State != StateRunning {
				continue
			}
			if now.After(job.Deadline) && job.done < job.total {
				a.failJob(job, "deadline exceeded")
				continue
			}
			a.startQueued(job)
		}
	})
	if err != nil {
		panic(fmt.Sprintf("agent: starting pump: %v", err))
	}
	a.pumping = true
}

// runningIndex locates jobID in a.running: its index and true, or the index
// that keeps the slice sorted and false.
func (a *Agent) runningIndex(jobID string) (int, bool) {
	return slices.BinarySearchFunc(a.running, jobID, func(j *Job, id string) int {
		return strings.Compare(j.ID, id)
	})
}

// retire drops a job that left StateRunning from the pump's list; it stays
// queryable through a.jobs. A job rejected before it was registered is not
// in the list and nothing happens.
func (a *Agent) retire(job *Job) {
	if at, ok := a.runningIndex(job.ID); ok {
		a.running = slices.Delete(a.running, at, at+1)
	}
}

// placeBids runs Best Response over the partition's hosts and enters bids
// for the job's sub-account.
func (a *Agent) placeBids(job *Job, count, minHosts int) error {
	cl := a.cfg.Cluster
	bidder := auction.BidderID(job.SubAccount)
	now := cl.Engine().Now()
	horizon := job.Deadline.Sub(now).Seconds()
	if horizon <= 0 {
		return errors.New("agent: deadline already passed")
	}

	allocs, err := a.bestResponse(job, horizon, count, minHosts)
	if err != nil {
		return fmt.Errorf("agent: best response: %w", err)
	}
	// Every host bid on will charge: the tab is sized with the placement.
	job.Hosts = make([]string, 0, len(allocs))
	job.Bids = make([]Bid, 0, len(allocs))
	job.tab = make([]tabRow, 0, len(allocs))
	var allocated bank.Amount
	for _, al := range allocs {
		budget, err := bank.FromCredits(al.Bid * horizon)
		if err != nil || budget <= 0 {
			continue
		}
		// Rounding each host budget to the nearest microcredit can push the
		// total past the verified amount; never bid more than the
		// sub-account holds.
		if allocated+budget > job.Budget {
			budget = job.Budget - allocated
		}
		if budget <= 0 {
			break
		}
		if _, err := cl.PlaceBid(al.Host.ID, bidder, budget, job.Deadline); err != nil {
			return fmt.Errorf("agent: bidding on %s: %w", al.Host.ID, err)
		}
		allocated += budget
		job.Hosts = append(job.Hosts, al.Host.ID)
		// The bid was just placed, so the market knows the bidder.
		h, _ := cl.Host(al.Host.ID)
		rate, _ := h.Market.Rate(bidder)
		job.Bids = append(job.Bids, Bid{Host: al.Host.ID, Amount: budget, Price: al.Host.Price, Rate: rate})
	}
	sort.Strings(job.Hosts)
	if len(job.Hosts) == 0 {
		return ErrNoBudget
	}
	return nil
}

// bestResponse spreads job's spend rate over at most count of the partition's
// up hosts by Best Response, whose model of a host is proportional share's
// quote, Rate/(Rate+Price). A world's hosts all clear by one rule; under any
// other, each funded market is asked what the bid would win
// (auction.Market.QuoteShare). The hosts that would win nothing are dropped
// and the rate re-solved over the hosts left.
//
// When every funded host would win nothing, a bid that waits for a clear
// that admits it is charged nothing meanwhile. So the job waits on that
// placement if, at the shares Best Response expected, it would run the job's
// work within horizon. Otherwise waiting cannot meet the deadline, and the
// rate is re-solved over one host fewer, each bid the higher for it, down to
// minHosts (at least one), until a host quotes a share.
func (a *Agent) bestResponse(job *Job, horizon float64, count, minHosts int) ([]core.Allocation, error) {
	bidder := auction.BidderID(job.SubAccount)
	rate := job.Budget.Credits() / horizon
	runs := a.discover(bidder)
	allocs, err := core.BestResponseRuns(rate, runs, count)
	if err != nil || a.host(0).Market.MechanismName() == mechanism.Proportional {
		return allocs, err
	}
	concentrating := false
	for {
		var drop map[string]bool
		for _, al := range allocs {
			h, _ := a.cfg.Cluster.Host(al.Host.ID)
			if h.Market.QuoteShare(bidder, al.Bid) == 0 {
				if drop == nil {
					drop = map[string]bool{}
				}
				drop[al.Host.ID] = true
			}
		}
		switch {
		case drop == nil:
			return allocs, nil
		case len(drop) < len(allocs):
			runs = without(runs, drop)
		case len(allocs) > max(1, minHosts) && (concentrating || !job.fits(allocs, horizon)):
			concentrating = true
			count = len(allocs) - 1
		default:
			return allocs, nil
		}
		if allocs, err = core.BestResponseRuns(rate, runs, count); err != nil {
			return nil, err
		}
	}
}

// fits reports whether allocs, at the shares Best Response expected of them,
// give the job the CPU to run its queued work within horizon seconds.
func (job *Job) fits(allocs []core.Allocation, horizon float64) bool {
	var work, mhz float64
	for _, c := range job.chunks {
		work += c
	}
	for _, al := range allocs {
		mhz += al.Bid / (al.Bid + al.Host.Price) * al.Host.Preference
	}
	return work <= mhz*horizon
}

// without returns runs less the dropped hosts, a run split where it loses a
// member; the runs' IDs stay subslices of theirs.
func without(runs []core.Run, drop map[string]bool) []core.Run {
	out := make([]core.Run, 0, len(runs)+len(drop))
	for _, r := range runs {
		lo := 0
		for i, id := range r.IDs {
			if drop[id] {
				if lo < i {
					out = append(out, core.Run{IDs: r.IDs[lo:i], Preference: r.Preference, Price: r.Price})
				}
				lo = i + 1
			}
		}
		if lo < len(r.IDs) {
			out = append(out, core.Run{IDs: r.IDs[lo:], Preference: r.Preference, Price: r.Price})
		}
	}
	return out
}

// discover lists Best Response's candidates for bidder, the partition's up
// hosts each with its capacity and the price of the other bids on it, as runs
// in canonical order. An awake host is priced by its market. A sleeping one
// has an empty book, so its market would answer the reserve: the sleeping
// hosts between two awake ones are one run per stretch they fall in, a
// subslice of a.ids, and cost nothing each. Neighbours with equal capacity and
// price share a run, so an awake host priced at the reserve joins its
// sleeping neighbours. A failed host is awake (grid.Cluster.AppendAwake), and
// is left out: it cannot take bids. The slice is the agent's scratch, valid
// until the next call: the agent is single-threaded and the optimizer copies
// the hosts it funds.
func (a *Agent) discover(bidder auction.BidderID) []core.Run {
	runs := a.runs[:0]
	end := 0 // position after the last host listed; the last run ends there
	add := func(lo, hi int, capacity, price float64) {
		if n := len(runs); n > 0 && end == lo && runs[n-1].Preference == capacity && runs[n-1].Price == price {
			runs[n-1].IDs = a.ids[lo-len(runs[n-1].IDs) : hi]
		} else {
			runs = append(runs, core.Run{IDs: a.ids[lo:hi], Preference: capacity, Price: price})
		}
		end = hi
	}
	st := 0 // the stretch of the first sleeping host not yet listed
	asleep := func(lo, hi int) {
		for lo < hi {
			for a.stretches[st].end <= lo {
				st++
			}
			s := a.stretches[st]
			cut := min(hi, s.end)
			add(lo, cut, s.capacity, s.reserve)
			lo = cut
		}
	}
	next := 0 // the first position not yet listed or skipped
	a.awake = a.cfg.Cluster.AppendAwake(a.awake[:0])
	for _, g := range a.awake {
		p := int(a.at[g])
		if p < 0 {
			continue // another partition's
		}
		asleep(next, p)
		next = p + 1
		if h := a.cfg.Cluster.HostAt(g); !h.Down() {
			add(p, p+1, h.Market.CapacityMHz(), h.Market.PriceExcluding(bidder))
		}
	}
	asleep(next, len(a.ids))
	a.runs = runs
	return runs
}

// startChunk pops the next chunk and runs it on host. One concurrent
// sub-job per host per job keeps the paper's one-VM-per-user-per-machine
// restriction.
func (a *Agent) startChunk(job *Job, host string) {
	if len(job.chunks) == 0 || job.busy[host] {
		return
	}
	work := job.chunks[0]
	idx := job.total - len(job.chunks)
	bidder := auction.BidderID(job.SubAccount)
	t, err := a.cfg.Cluster.StartTask(host, bidder, work, func(t *grid.Task) {
		a.onTaskDone(job, host, t)
	})
	if err != nil {
		// Host cannot take the chunk now (e.g. VM limit); leave the chunk
		// queued — it will be retried when any sub-job completes.
		return
	}
	job.chunks = job.chunks[1:]
	job.busy[host] = true
	h, _ := a.cfg.Cluster.Host(host) // StartTask found it
	job.SubJobs = append(job.SubJobs, SubJob{
		Index:   idx,
		Host:    host,
		TaskID:  t.ID,
		Started: a.cfg.Cluster.Engine().Now(),
		Price:   h.Market.SpotPrice(),
		VM:      t.VMID,
		ReadyAt: t.ReadyAt,
	})
}

// startQueued starts queued chunks on the job's hosts, in host order, until
// the queue is empty or every host has been tried once.
func (a *Agent) startQueued(job *Job) {
	for _, h := range job.Hosts {
		if len(job.chunks) == 0 {
			return
		}
		a.startChunk(job, h)
	}
}

// onTaskDone records completion and schedules the next chunk.
func (a *Agent) onTaskDone(job *Job, host string, t *grid.Task) {
	for i := range job.SubJobs {
		if job.SubJobs[i].TaskID == t.ID {
			job.SubJobs[i].Done = t.DoneAt
			break
		}
	}
	job.done++
	delete(job.busy, host)
	if job.done >= job.total {
		a.finish(job)
		return
	}
	// Keep this host busy with the next chunk; also retry hosts that were
	// previously full.
	a.startChunk(job, host)
	a.startQueued(job)
}

// onHostFailure is the broker half of fault tolerance: for every managed job
// hit by the crash it re-queues the killed chunks and moves the freed bid
// escrow to a surviving host (the Nimrod-G resubmission duty). Note that no
// bank money moves here — bid budgets live in the job's sub-account until
// charged, so cancelled-bid remainders are simply free to re-bid.
func (a *Agent) onHostFailure(f grid.HostFailure) {
	now := a.cfg.Cluster.Engine().Now()
	freed := make(map[string]bank.Amount)
	affected := make(map[string]*Job)
	for _, b := range f.Bids {
		if job, ok := a.byBidder[b.Bidder]; ok && job.State == StateRunning {
			freed[job.ID] += b.Amount
			affected[job.ID] = job
		}
	}
	for _, t := range f.Tasks {
		job, ok := a.byBidder[t.Owner]
		if !ok || job.State != StateRunning {
			continue
		}
		affected[job.ID] = job
		for i := range job.SubJobs {
			s := &job.SubJobs[i]
			if s.TaskID == t.ID && s.Done.IsZero() && !s.Failed {
				s.Failed = true
				break
			}
		}
		// Progress on the dead host is lost; re-queue the whole chunk (the
		// paper's jobs are restartable bag-of-tasks chunks).
		job.chunks = append(job.chunks, t.TotalWork)
		delete(job.busy, f.HostID)
		mChunksResubmitted.Inc()
		job.note(record{at: now, kind: recPreempted, host: f.HostID, other: t.ID})
	}
	ids := make([]string, 0, len(affected))
	for id := range affected {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		a.failover(affected[id], f.HostID, freed[id])
	}
}

// failover repairs one job's placement after failedHost died: the host is
// dropped, the freed escrow is re-bid on the cheapest surviving host, and
// re-queued chunks are restarted. A job with no surviving hosts is failed
// with a full refund of its unspent balance.
func (a *Agent) failover(job *Job, failedHost string, freed bank.Amount) {
	for i, h := range job.Hosts {
		if h == failedHost {
			job.Hosts = append(job.Hosts[:i], job.Hosts[i+1:]...)
			break
		}
	}
	delete(job.busy, failedHost)
	if freed > 0 {
		if host := a.cheapestLiveHost(); host != "" {
			err := a.fund(job, host, freed)
			if err == nil {
				// The cheapest host may be one of the job's own, its bid run
				// dry and dropped: it is re-funded, not listed twice.
				if !slices.Contains(job.Hosts, host) {
					job.Hosts = append(job.Hosts, host)
					sort.Strings(job.Hosts)
				}
				mEscrowFailedOver.Inc()
				job.note(record{at: a.cfg.Cluster.Engine().Now(), kind: recFailedOver,
					host: failedHost, other: host, amount: freed, escrow: job.Budget - job.Charged})
			}
			// On error (deadline passed, host just died) the money simply
			// stays in the sub-account and is refunded at job end.
		}
	}
	if len(job.Hosts) == 0 {
		a.failJob(job, "all funded hosts failed")
		return
	}
	a.startQueued(job)
}

// cheapestLiveHost returns the up host with the lowest spot price among this
// agent's hosts (deterministic tie-break on id), or "" if every host is down.
func (a *Agent) cheapestLiveHost() string {
	best := ""
	bestPrice := 0.0
	for i := range a.cfg.Hosts {
		h := a.host(i)
		if h.Down() {
			continue
		}
		if p := h.Market.SpotPrice(); best == "" || p < bestPrice {
			best, bestPrice = h.Spec.ID, p
		}
	}
	return best
}

// failJob terminates a running job as failed: live tasks are killed (a
// sub-job whose host crashed has none left), queued chunks dropped, bids
// cancelled and the unspent balance refunded. OnEnd fires last, with
// FailReason set.
func (a *Agent) failJob(job *Job, reason string) {
	if job.State != StateRunning {
		return
	}
	for _, s := range job.SubJobs {
		if s.Done.IsZero() && !s.Failed {
			// Already-finished tasks error harmlessly.
			_ = a.cfg.Cluster.CancelTask(s.Host, s.TaskID)
		}
	}
	job.FailReason = reason
	onEnd := job.OnEnd
	a.unwind(job) // cancels bids, drops queued chunks, refunds the sub-account, marks StateFailed
	mJobsFailed.Inc()
	if onEnd != nil {
		onEnd(job)
	}
}

// unwind cancels any placed bids, returns the job's full sub-account balance
// to the broker and marks the job failed: the release of a job that failed,
// was cancelled, or was refused after funding (hold-back policy or a bidding
// failure).
func (a *Agent) unwind(job *Job) {
	a.teardown(job)
	job.Hosts = nil
	job.State = StateFailed
	a.retire(job)
}

// teardown releases the job's escrow, and is the only place that does: it
// cancels the job's bid on every funded host, banks the job's tab (so every
// host is paid what it charged before anything goes back), then refunds what
// is left in the sub-account to the broker under refundMemo(job)+job.ID (the
// memo reaches receipts and timelines). It drops the scheduling state, which
// nothing reads once the job has no escrow: the chunk queue and the busy map
// are nil from here on, and every later reader takes nil (startChunk starts
// nothing without a chunk; onTaskDone, onHostFailure and failover only
// delete). It drops OnEnd too: finish and failJob take it before calling
// teardown, and no other release fires it.
func (a *Agent) teardown(job *Job) {
	job.chunks, job.busy = nil, nil
	job.OnEnd = nil
	memo := refundMemo(job)
	bidder := auction.BidderID(job.SubAccount)
	for _, h := range job.Hosts {
		host, err := a.cfg.Cluster.Host(h)
		if err != nil {
			continue
		}
		if _, err := host.Market.CancelBid(bidder); err != nil &&
			!errors.Is(err, auction.ErrUnknownBidder) {
			panic(fmt.Sprintf("agent: cancel bid on %s: %v", h, err))
		}
	}
	a.bankTab(job)
	job.releasedAt = a.cfg.Cluster.Engine().Now()
	bal, err := a.cfg.Bank.Balance(job.SubAccount)
	if err == nil && bal > 0 {
		if err := a.cfg.Bank.MoveInternal(a.cfg.Identity, job.SubAccount, a.cfg.Account,
			bal, bank.EntryRefund, memo+job.ID); err != nil {
			panic(fmt.Sprintf("agent: %s%s: %v", memo, job.ID, err))
		}
		job.refunded = bal
	}
}

// finish cancels outstanding bids and refunds the sub-account's unspent
// balance to the broker account ("the outstanding balance will be refunded
// to the user").
func (a *Agent) finish(job *Job) {
	job.State = StateDone
	a.retire(job)
	// Exact end: the latest sub-job completion (back-dated by the grid).
	job.endedAt = latestDone(job.SubJobs, a.cfg.Cluster.Engine().Now())
	onEnd := job.OnEnd
	a.teardown(job)
	if onEnd != nil {
		onEnd(job)
	}
}

func latestDone(subs []SubJob, fallback time.Time) time.Time {
	latest := time.Time{}
	for _, s := range subs {
		if s.Done.After(latest) {
			latest = s.Done
		}
	}
	if latest.IsZero() {
		return fallback
	}
	return latest
}

// Cancel aborts a running job as failJob does, with FailReason "cancelled"
// and without firing OnEnd: the caller knows. Completed sub-job records are
// kept.
func (a *Agent) Cancel(jobID string) error {
	job, ok := a.jobs[jobID]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownJob, jobID)
	}
	if job.State != StateRunning {
		return ErrJobDone
	}
	job.OnEnd = nil
	a.failJob(job, reasonCancelled)
	return nil
}

// Boost verifies an additional transfer token and spreads its amount over
// the job's funded hosts proportionally to their current bids — the paper's
// "jobs that have been submitted may be boosted with additional funding to
// complete sooner". The token is redeemed into the job's escrow first; an
// error after that means no bid, or not every bid, was raised.
func (a *Agent) Boost(jobID string, tok token.Token) error {
	job, ok := a.jobs[jobID]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownJob, jobID)
	}
	if job.State != StateRunning {
		return ErrJobDone
	}
	now := a.cfg.Cluster.Engine().Now()
	amount, err := a.cfg.Verifier.Verify(tok, now)
	if err != nil {
		mTokenRejections.Inc()
		return fmt.Errorf("agent: boost token rejected: %w", err)
	}
	mTokenRedemptions.Inc()
	if err := a.cfg.Bank.MoveInternal(a.cfg.Identity, a.cfg.Account, job.SubAccount,
		amount, bank.EntryTransfer, "boost "+jobID); err != nil {
		return err
	}
	job.Budget += amount
	job.note(record{at: now, kind: recBoosted, amount: amount, budget: job.Budget,
		escrow: job.Budget - job.Charged})
	// Proportional to the bids' remaining budgets, over the job's hosts in
	// order. The market drops a bid at the tick it runs dry, so a host may
	// hold none; when no host holds one the split is even over the hosts that
	// are up, each share placed as a fresh bid.
	bidder := auction.BidderID(job.SubAccount)
	weight := make([]bank.Amount, len(job.Hosts))
	var total, up bank.Amount
	for i, h := range job.Hosts {
		host, err := a.cfg.Cluster.Host(h)
		if err != nil || host.Down() {
			weight[i] = -1 // cannot take a bid
			continue
		}
		up++
		if r, err := host.Market.Remaining(bidder); err == nil {
			weight[i] = r
			total += r
		}
	}
	funded := false
	for i, h := range job.Hosts {
		var share bank.Amount
		switch {
		case weight[i] < 0:
		case total > 0:
			share = bank.Amount(int64(float64(amount) * float64(weight[i]) / float64(total)))
		default:
			share = amount / up
		}
		if share <= 0 {
			continue
		}
		if err := a.fund(job, h, share); err != nil {
			return fmt.Errorf("agent: boosting %s on %s: %w", jobID, h, err)
		}
		funded = true
	}
	if !funded {
		// The money stays in the sub-account and is refunded at job end.
		return fmt.Errorf("agent: boost %s: none of its %d hosts could take a share of %v", jobID, len(job.Hosts), amount)
	}
	return nil
}

// fund adds amount to the job's bid on host, or — the market having dropped a
// bid that ran dry — places it as a fresh bid valid to the job's deadline.
// Boost comes first because PlaceBid REPLACES a live bid and would hand back
// its remainder, silently shrinking the job's working escrow.
func (a *Agent) fund(job *Job, host string, amount bank.Amount) error {
	bidder := auction.BidderID(job.SubAccount)
	err := a.cfg.Cluster.Boost(host, bidder, amount)
	if errors.Is(err, auction.ErrUnknownBidder) {
		_, err = a.cfg.Cluster.PlaceBid(host, bidder, amount, job.Deadline)
	}
	return err
}

// HostIDs returns the (possibly partitioned) host set this agent uses.
func (a *Agent) HostIDs() []string {
	return slices.Clone(a.cfg.Hosts)
}

// MeanSpotPrice returns the average spot price over this agent's hosts —
// the matchmaking signal a meta-scheduler uses to pick a replica.
func (a *Agent) MeanSpotPrice() float64 {
	var sum float64
	n := 0
	for i := range a.cfg.Hosts {
		h := a.host(i)
		if h.Down() {
			continue
		}
		sum += h.Market.SpotPrice()
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// HistoryHandle returns the partition's price-history reader, which a
// meta-scheduler puts on its strategy.Candidate as Hist: each call returns
// the mean spot-price history (oldest first) of the last Window ticks,
// averaged across this agent's hosts per auction tick.
//
// It reads the hosts' market rings (auction.Market.History), which the
// markets hang when first asked, so an agent nobody reads has none, and do
// not backfill: a ring first hung after prices have flowed holds only the
// clears after it. arc.NewMeta asks before the first clear.
func (a *Agent) HistoryHandle() func() []float64 {
	rings := make([]*tsdb.Ring, len(a.cfg.Hosts))
	for i := range rings {
		rings[i] = a.host(i).Market.History(a.cfg.Window)
	}
	return func() []float64 {
		a.syncFeed()
		return pricefeed.MeanHistory(rings, a.cfg.Window)
	}
}

// syncFeed brings the hosts' rings and models up to date with their markets.
// An idle host's market sleeps through ticks and hands its observers the
// samples it owes only when woken (auction.Market.Sleep), so everything that
// reads the rings or the forecast models goes through here first.
func (a *Agent) syncFeed() {
	for i := range a.cfg.Hosts {
		a.host(i).Market.Sync()
	}
}

// ForecastHandle returns the forecast a meta-scheduler puts on its
// strategy.Candidate: the combined forecast over this agent's hosts, read
// from one predict.StreamingAR per host, which hangs on the host's market
// beside its price ring and is updated on every clear.
//
// The models are hung the first time the handle is asked for, each after its
// host's ring, so an agent nobody forecasts from carries none, and they are
// not backfilled: until enough clears arrive after that, the handle reports
// predict.ErrInsufficientHistory, which prediction strategies score as the
// current price. arc.NewMeta asks before the first clear.
func (a *Agent) ForecastHandle() strategy.ForecastFunc {
	if a.models == nil {
		a.HistoryHandle()
		cfg := predict.PredictorConfig{Window: a.cfg.Window, Step: a.cfg.Cluster.Interval()}
		a.models = make([]*predict.StreamAR, len(a.cfg.Hosts))
		for i := range a.models {
			h := a.host(i)
			sp, _ := predict.NewStreaming(predict.StreamingAR, cfg) // the one model there is
			a.models[i] = sp
			// Market.Observe first pays what a sleeping market owes its
			// observers, so the model sees nothing older than itself. It
			// refuses only what the host's ring, attached before it and held
			// to the same rules, refuses and counts.
			h.Market.Observe(func(price float64, at time.Time) { _ = sp.Observe(price, at) })
		}
	}
	return func(horizon time.Duration) (predict.Forecast, error) {
		a.syncFeed()
		return predict.ForecastMean(a.models, horizon)
	}
}

// Cluster returns the grid cluster the agent schedules onto.
func (a *Agent) Cluster() *grid.Cluster { return a.cfg.Cluster }

// Engine returns the simulation engine (via the cluster).
func (a *Agent) Engine() *sim.Engine { return a.cfg.Cluster.Engine() }

// Jobs returns all jobs sorted by id.
func (a *Agent) Jobs() []*Job {
	out := make([]*Job, 0, len(a.jobs))
	for _, j := range a.jobs {
		out = append(out, j)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}
