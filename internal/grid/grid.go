// Package grid is the cluster substrate of the reproduction: a
// discrete-event simulation of Tycoon-controlled hosts that stands in for
// the paper's physical testbed (see DESIGN.md §2). Each host runs a real
// auction.Market and vm.Manager; every reallocation interval (10 s) the
// cluster ticks all markets, applies charges, and advances the CPU-bound
// work of running tasks by their allocated share — with the paper's
// dual-processor behaviour: a single task can use at most one physical CPU,
// so two users on a dual-CPU host may both get a full CPU without competing.
package grid

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"tycoongrid/internal/auction"
	"tycoongrid/internal/bank"
	"tycoongrid/internal/marketplane"
	"tycoongrid/internal/mechanism"
	"tycoongrid/internal/sim"
	"tycoongrid/internal/vm"
)

// HostSpec describes one simulated host.
type HostSpec struct {
	ID             string
	CPUs           int           // physical processors
	CPUMHz         float64       // capacity of one processor
	MaxVMs         int           // 0 = 15 per processor, the paper's ≈ 15 virtual CPUs per node
	CreateOverhead time.Duration // a fresh VM's boot
}

// Host is one cluster node: a market plus a VM manager. The cluster holds
// its hosts by value, each with its market and VM manager inside it, so an
// idle host is one stretch of one allocation.
type Host struct {
	Spec   HostSpec
	Market *auction.Market // the host's own market, below
	VMs    vm.Manager
	// tasks is ascending by ID, the order a tick advances and finishes them
	// in. IDs are "task-%05d" of a counter, so the order stops being creation
	// order at 100 000 tasks; only its being the same every run is relied on.
	tasks  []*Task
	index  int32 // position in Cluster.hosts
	down   bool
	busy   bool // in Cluster.busy or Cluster.started
	market auction.Market
}

// vmHost is the host as its VM manager boots on it.
func (h *Host) vmHost() vm.Config {
	return vm.Config{HostID: h.Spec.ID, MaxVMs: h.Spec.MaxVMs, CreateOverhead: h.Spec.CreateOverhead}
}

// task finds a task by ID: its position in h.tasks, or where it would go.
func (h *Host) task(id string) (int, bool) {
	return slices.BinarySearchFunc(h.tasks, id, func(t *Task, id string) int { return strings.Compare(t.ID, id) })
}

// Index returns the host's position in its cluster's HostIDs.
func (h *Host) Index() int { return int(h.index) }

// Down reports whether the host is currently failed.
func (h *Host) Down() bool { return h.down }

// TotalMHz returns the host's aggregate CPU capacity.
func (h *Host) TotalMHz() float64 {
	return h.Spec.CPUMHz * float64(h.Spec.CPUs)
}

// PerCPUMHz returns one processor's capacity — the ceiling for a
// single-threaded task.
func (h *Host) PerCPUMHz() float64 {
	return h.Spec.CPUMHz
}

// Task is one sub-job executing in a VM on one host.
type Task struct {
	ID        string
	Owner     auction.BidderID
	Work      float64 // remaining MHz-seconds
	TotalWork float64
	VMID      string
	ReadyAt   time.Time // when its VM has booted
	DoneAt    time.Time // exact completion time (set when finished)
	OnDone    func(*Task)

	// shareAt is where Owner's row was in the host's share table at the last
	// advance, or -1. A hint: the advance trusts it only while the row there
	// is Owner's, and searches otherwise. Checking costs a pointer compare
	// when the bid and the task were made with one string, as the agent's are.
	shareAt int
}

// Config configures a cluster.
type Config struct {
	Hosts        []HostSpec
	Interval     time.Duration // reallocation period; default 10 s
	ReservePrice float64       // credits/second floor for every market
	// PurgeIdleAfter, when positive, destroys VMs idle longer than this at
	// every reallocation — the paper's "virtual machine purging or
	// hibernation model that could increase this number further" (§3),
	// freeing slots for other users at the price of a fresh boot later.
	PurgeIdleAfter time.Duration
	// Mechanism names the clearing rule every host market runs
	// (mechanism.Names: proportional, posted-price, vcg). Empty selects the
	// paper's proportional share. Each host gets its own mechanism instance,
	// since mechanisms may carry per-host state such as the posted price.
	Mechanism string
}

// Cluster is the simulated Tycoon network.
type Cluster struct {
	engine   *sim.Engine
	interval time.Duration
	purge    time.Duration
	hosts    []Host   // ascending by id: the deterministic host order
	order    []string // the hosts' ids in that order: order[i] == hosts[i].Spec.ID
	taskSeq  int
	plane    *marketplane.Plane // clears every host market, hosts[i] at index i
	isDown   func(i int) bool   // hosts[i].down, the plane's skip predicate
	down     int                // hosts currently failed

	// failures and recoveries count the FailHost and RecoverHost calls that
	// took effect, for Outages.
	failures, recoveries int

	// busy holds the list indices of the hosts a tick has to advance or reap
	// — those with a task, or with a VM while purging is on — ascending.
	// started are the hosts that became busy since; they join at the next
	// tick. shares and owned are advanceTasks' scratch.
	busy    []int32
	started []int32
	shares  []auction.Share
	owned   []int

	// OnSettle, when set, is handed each tick's clears — every cleared
	// host's charges and refunds, in host order — as one batch; the agent
	// layer books them on its jobs' tabs. The slice is the plane's and is
	// valid only during the call.
	OnSettle func(cleared []marketplane.TickResult)
	// OnHostFailure, when set, observes FailHost. The broker layer uses it to
	// resubmit killed chunks and reclaim escrow.
	OnHostFailure func(HostFailure)

	ticking bool // Start armed the reallocation ticker
}

// HostFailure describes everything lost when a host crashed: the tasks that
// were running there (their OnDone callbacks do NOT fire) and the unspent
// remainder of every live bid, which the market refunds because a dead host
// can no longer deliver CPU.
type HostFailure struct {
	HostID string
	Tasks  []*Task          // killed tasks, sorted by ID
	Bids   []auction.Charge // refunded bid remainders, sorted by bidder
}

// Errors returned by the cluster.
var (
	ErrUnknownHost = errors.New("grid: unknown host")
	ErrBadSpec     = errors.New("grid: invalid host spec")
	ErrHostDown    = errors.New("grid: host is down")
)

// New builds a cluster on the given simulation engine.
func New(engine *sim.Engine, cfg Config) (*Cluster, error) {
	if engine == nil {
		return nil, errors.New("grid: nil engine")
	}
	if len(cfg.Hosts) == 0 {
		return nil, fmt.Errorf("%w: no hosts", ErrBadSpec)
	}
	interval := cfg.Interval
	if interval <= 0 {
		interval = auction.DefaultInterval
	}
	for _, spec := range cfg.Hosts {
		if spec.ID == "" || spec.CPUs < 1 || spec.CPUMHz <= 0 {
			return nil, fmt.Errorf("%w: %+v", ErrBadSpec, spec)
		}
	}
	// The hosts are laid out once, in canonical order; the sorted copy of the
	// specs lives only as long as New.
	specs := slices.Clone(cfg.Hosts)
	slices.SortStableFunc(specs, func(a, b HostSpec) int { return strings.Compare(a.ID, b.ID) })
	for i := 1; i < len(specs); i++ {
		if specs[i].ID == specs[i-1].ID {
			return nil, fmt.Errorf("%w: duplicate host %q", ErrBadSpec, specs[i].ID)
		}
	}
	c := &Cluster{
		engine:   engine,
		interval: interval,
		purge:    cfg.PurgeIdleAfter,
		hosts:    make([]Host, len(specs)),
		order:    make([]string, len(specs)),
	}
	markets := make([]marketplane.HostMarket, len(specs))
	for i, spec := range specs {
		if spec.MaxVMs < 1 {
			spec.MaxVMs = 15 * spec.CPUs
		}
		mech, err := mechanism.New(cfg.Mechanism, mechanism.Config{})
		if err != nil {
			return nil, err
		}
		h := &c.hosts[i]
		h.Spec, h.index, h.Market = spec, int32(i), &h.market
		if err := h.market.Init(auction.Config{
			HostID:       spec.ID,
			CapacityMHz:  spec.CPUMHz * float64(spec.CPUs),
			ReservePrice: cfg.ReservePrice,
			Start:        engine.Now(),
			Mechanism:    mech,
		}); err != nil {
			return nil, err
		}
		c.order[i] = spec.ID
		markets[i] = h.Market
	}
	p, err := marketplane.New(marketplane.Config{Markets: markets})
	if err != nil {
		return nil, err
	}
	c.plane = p
	c.isDown = func(i int) bool { return c.hosts[i].down }
	return c, nil
}

// Start begins the reallocation ticker. It must be called once before
// running the simulation.
func (c *Cluster) Start() error {
	if c.ticking {
		return errors.New("grid: cluster already started")
	}
	if err := c.engine.Every(c.interval, c.tick); err != nil {
		return err
	}
	c.ticking = true
	return nil
}

// Engine returns the simulation engine driving the cluster.
func (c *Cluster) Engine() *sim.Engine { return c.engine }

// Interval returns the reallocation period.
func (c *Cluster) Interval() time.Duration { return c.interval }

// Host returns a host by id: a binary search of the sorted ids.
func (c *Cluster) Host(id string) (*Host, error) {
	i, ok := slices.BinarySearch(c.order, id)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownHost, id)
	}
	return &c.hosts[i], nil
}

// HostAt returns the host at index i of HostIDs.
func (c *Cluster) HostAt(i int) *Host { return &c.hosts[i] }

// NumHosts returns how many hosts the cluster has: the length of HostIDs,
// without its copy.
func (c *Cluster) NumHosts() int { return len(c.order) }

// HostIDs returns all host ids in deterministic order (ascending), in a
// slice of the caller's own.
func (c *Cluster) HostIDs() []string { return slices.Clone(c.order) }

// SharedHostIDs is HostIDs without the copy: the cluster's own slice, capped
// at its length, which the caller reads and never writes. An agent over the
// whole cluster lays its candidates out in it.
func (c *Cluster) SharedHostIDs() []string { return c.order[:len(c.order):len(c.order)] }

// Sync brings the named hosts' markets up to date (auction.Market.Sync), or
// every host's when none is named; ids the cluster does not know are ignored.
// An idle host's market sleeps through ticks and catches up when touched, so
// whoever reads what a market's observers have recorded syncs it first.
func (c *Cluster) Sync(hosts ...string) {
	if len(hosts) == 0 {
		for i := range c.hosts {
			c.hosts[i].market.Sync()
		}
		return
	}
	for _, id := range hosts {
		if h, err := c.Host(id); err == nil {
			h.market.Sync()
		}
	}
}

// AppendAwake appends to dst the indices into HostIDs of the hosts whose
// market is awake, ascending, and returns the extended slice. Every other
// host's market sleeps: its book is empty, so it prices every bidder at its
// reserve, and it is up — a failed host stays awake until it recovers.
func (c *Cluster) AppendAwake(dst []int) []int { return c.plane.AppendAwake(dst) }

// PlaceBid enters budget on a host's market for bidder, valid until
// deadline.
func (c *Cluster) PlaceBid(hostID string, bidder auction.BidderID, budget bank.Amount, deadline time.Time) (bank.Amount, error) {
	h, err := c.Host(hostID)
	if err != nil {
		return 0, err
	}
	if h.down {
		return 0, fmt.Errorf("%w: %q", ErrHostDown, hostID)
	}
	return h.Market.PlaceBid(bidder, budget, deadline)
}

// Boost adds funds to an existing bid.
func (c *Cluster) Boost(hostID string, bidder auction.BidderID, extra bank.Amount) error {
	h, err := c.Host(hostID)
	if err != nil {
		return err
	}
	if h.down {
		return fmt.Errorf("%w: %q", ErrHostDown, hostID)
	}
	return h.Market.Boost(bidder, extra)
}

// StartTask launches a sub-job for owner on a host: it acquires a VM (reuse
// first), and the task begins consuming CPU once the VM is ready. workMHzSec
// is the task's size in MHz-seconds (e.g. 212 minutes at 2800 MHz =
// 212*60*2800). onDone fires at the tick when the task completes, with
// DoneAt back-dated to the exact completion instant.
func (c *Cluster) StartTask(hostID string, owner auction.BidderID, workMHzSec float64, onDone func(*Task)) (*Task, error) {
	if workMHzSec <= 0 || math.IsNaN(workMHzSec) || math.IsInf(workMHzSec, 0) {
		return nil, fmt.Errorf("grid: bad task size %v", workMHzSec)
	}
	h, err := c.Host(hostID)
	if err != nil {
		return nil, err
	}
	if h.down {
		return nil, fmt.Errorf("%w: %q", ErrHostDown, hostID)
	}
	machine, err := h.VMs.Acquire(h.vmHost(), string(owner), c.engine.Now())
	if err != nil {
		return nil, err
	}
	c.taskSeq++
	t := &Task{
		ID:        fmt.Sprintf("task-%05d", c.taskSeq),
		Owner:     owner,
		Work:      workMHzSec,
		TotalWork: workMHzSec,
		VMID:      machine.ID,
		ReadyAt:   machine.ReadyAt,
		OnDone:    onDone,
		shareAt:   -1,
	}
	at, _ := h.task(t.ID)
	h.tasks = slices.Insert(h.tasks, at, t)
	if !h.busy {
		h.busy = true
		c.started = append(c.started, h.index)
	}
	// The owner is consuming CPU on this host now.
	if err := h.Market.SetActive(owner, true); err != nil && !errors.Is(err, auction.ErrUnknownBidder) {
		return nil, err
	}
	return t, nil
}

// tick advances the markets and the tasks by one interval, in three passes,
// each over the hosts it concerns and no others (an idle host costs a tick
// nothing):
//
//   - clear: the plane clears every awake, up host's market, on the
//     caller's goroutine; each market's clear depends on that market alone;
//   - settle: the charges and refunds of every cleared host reach OnSettle,
//     in host order, as one batch — the agent books each charge on its job's
//     tab and calls no bank (a job's tab is banked when its escrow is
//     released);
//   - advance: every busy host's tasks progress by its market's shares — the
//     table the clear left, or a fresh quote if an earlier host's OnDone has
//     changed this host's book since — and the finished ones fire OnDone, in
//     host order; idle VMs are purged.
//
// Settlement is complete before the first OnDone runs, so a callback that
// releases a job's escrow finds every charge the job owes on its tab. And a
// callback sees every market already cleared: a bid it places starts
// accruing at the next tick, a bid it cancels has paid for the interval that
// just ended — on whichever host, so billing does not depend on host order.
//
// The tick times itself once per pass (grid_tick_phase_seconds), not once
// per clear: four clock reads a tick, however many markets it clears.
func (c *Cluster) tick() {
	now := c.engine.Now()
	start := time.Now()
	// A down host was skipped by the clear and has nothing to settle.
	cleared := c.plane.TickAll(now, c.isDown)
	settleStart := time.Now()
	if c.OnSettle != nil {
		c.OnSettle(cleared)
	}
	advanceStart := time.Now()
	if len(c.started) > 0 {
		c.busy = append(c.busy, c.started...)
		slices.Sort(c.busy)
		c.started = c.started[:0]
	}
	running, busyHosts := 0, 0
	stay := c.busy[:0]
	for _, i := range c.busy {
		h := &c.hosts[i]
		if !h.down {
			// An OnDone in here may start tasks: on this host, which then
			// stays busy below, or on another, which is busy already or joins
			// c.started; a task started now has nothing to advance by yet.
			c.advanceTasks(h, now)
			if c.purge > 0 {
				h.VMs.PurgeIdleOlderThan(now.Add(-c.purge))
			}
		}
		n := len(h.tasks)
		if n > 0 {
			running += n
			busyHosts++
		}
		if n > 0 || (c.purge > 0 && h.VMs.Live() > 0) {
			stay = append(stay, i)
		} else {
			h.busy = false
		}
	}
	c.busy = stay
	end := time.Now()
	mPhaseClear.Observe(settleStart.Sub(start).Seconds())
	mPhaseSettle.Observe(advanceStart.Sub(settleStart).Seconds())
	mPhaseAdvance.Observe(end.Sub(advanceStart).Seconds())
	mTicks.Inc()
	mRunningTasks.Set(float64(running))
	mHostUtilization.Set(float64(busyHosts) / float64(len(c.hosts)))
	mHostsDown.Set(float64(c.down))
}

// FailHost crashes a host: every running task is killed (OnDone does not
// fire), all VM images are lost, and every live bid is cancelled with its
// unspent remainder collected for refund. The HostFailure handed to
// OnHostFailure is the broker's one chance to learn what died — the host
// itself forgets everything.
func (c *Cluster) FailHost(hostID string) (HostFailure, error) {
	h, err := c.Host(hostID)
	if err != nil {
		return HostFailure{}, err
	}
	if h.down {
		return HostFailure{}, fmt.Errorf("%w: %q", ErrHostDown, hostID)
	}
	// A down host is skipped by the clear, which only asks about awake
	// markets: the market catches up to now first, and stays awake while down.
	h.Market.Sync()
	h.down = true
	c.down++
	f := HostFailure{HostID: hostID}
	if len(h.tasks) > 0 {
		f.Tasks = h.tasks
	}
	h.tasks = nil
	h.VMs.PurgeAll()
	f.Bids = h.Market.CancelAll()
	c.failures++
	mHostFailures.Inc()
	mTasksKilled.Add(uint64(len(f.Tasks)))
	if c.OnHostFailure != nil {
		c.OnHostFailure(f)
	}
	return f, nil
}

// RecoverHost brings a failed host back empty: no VMs, no bids, no tasks.
// The market clock is resynced to now so the outage window is never billed
// against future bids.
func (c *Cluster) RecoverHost(hostID string) error {
	h, err := c.Host(hostID)
	if err != nil {
		return err
	}
	if !h.down {
		return fmt.Errorf("grid: host %q is not down", hostID)
	}
	h.down = false
	c.down--
	// A clock resync, not a clear of bids: FailHost cancelled every bid, so
	// nothing is charged or refunded here, and no bid placed from now on is
	// billed for the outage. It also publishes the empty book's price, which
	// the plane's price cache follows. The host's next clear comes from tick,
	// through the plane, like every other.
	h.Market.Tick(c.engine.Now())
	auction.CountClears(1)
	c.recoveries++
	mHostRecoveries.Inc()
	return nil
}

// Outages returns how many times this cluster's hosts have failed and
// recovered: its share of host_failures_total and host_recoveries_total.
func (c *Cluster) Outages() (failures, recoveries int) { return c.failures, c.recoveries }

// advanceTasks applies one interval of CPU progress to a host's tasks.
func (c *Cluster) advanceTasks(h *Host, now time.Time) {
	if len(h.tasks) == 0 {
		return
	}
	// The market's share table, ascending by bidder, copied into the cluster's
	// own buffer (the table itself is only the market's to read).
	c.shares = h.Market.AppendShares(c.shares[:0])
	shares := c.shares
	// An owner's share is divided among their concurrent tasks on this host:
	// find each task's share, and count the tasks on each share. A task whose
	// owner holds no bid has no share and does not progress. The row a task
	// found last tick is where it is now unless the book changed before it.
	// (Grow and clear, not append of a make: the race detector's build
	// allocates the make.)
	c.owned = slices.Grow(c.owned[:0], len(shares))[:len(shares)]
	clear(c.owned)
	for _, t := range h.tasks {
		if at := t.shareAt; at < 0 || at >= len(shares) || shares[at].Bidder != t.Owner {
			at, ok := slices.BinarySearchFunc(shares, t.Owner, func(s auction.Share, owner auction.BidderID) int {
				return strings.Compare(string(s.Bidder), string(owner))
			})
			if !ok {
				at = -1
			}
			t.shareAt = at
		}
		if t.shareAt >= 0 {
			c.owned[t.shareAt]++
		}
	}
	total := h.TotalMHz()
	perCPU := h.PerCPUMHz()
	dt := c.interval.Seconds()

	// A finished task, and whether it was its owner's only one on this host
	// when the interval began.
	type done struct {
		t    *Task
		sole bool
	}
	var finished []done
	for _, t := range h.tasks {
		// Effective compute window within (now-dt, now]: clip by VM readiness.
		eff := dt
		if t.ReadyAt.After(now) {
			continue
		}
		if windowStart := now.Add(-c.interval); t.ReadyAt.After(windowStart) {
			eff = now.Sub(t.ReadyAt).Seconds()
		}
		at := t.shareAt
		if at < 0 {
			continue
		}
		share := shares[at].Fraction / float64(c.owned[at])
		rate := share * total
		// Dual-CPU rule: a single-threaded task caps at one processor.
		if rate > perCPU {
			rate = perCPU
		}
		if rate <= 0 || eff <= 0 {
			continue
		}
		t.Work -= rate * eff
		if t.Work <= 0 {
			// Back-date the exact completion instant within the interval.
			overshoot := -t.Work / rate
			t.DoneAt = now.Add(-time.Duration(overshoot * float64(time.Second)))
			t.Work = 0
			finished = append(finished, done{t, c.owned[at] == 1})
		}
	}
	mTasksCompleted.Add(uint64(len(finished)))
	for _, f := range finished {
		t := f.t
		h.removeTask(t.ID)
		if err := h.VMs.Release(t.VMID, now); err != nil {
			// A released VM in a bad state indicates an internal bug; tasks
			// own their VM exclusively between Acquire and Release.
			panic(fmt.Sprintf("grid: releasing %s: %v", t.VMID, err))
		}
		if f.sole && !ownerHasTasks(h, t.Owner) {
			// Owner no longer computes here: stop charging them.
			_ = h.Market.SetActive(t.Owner, false)
		}
		if t.OnDone != nil {
			t.OnDone(t)
		}
	}
}

// removeTask takes a task off the host and returns it, or nil if the host
// does not run it.
func (h *Host) removeTask(id string) *Task {
	at, ok := h.task(id)
	if !ok {
		return nil
	}
	t := h.tasks[at]
	h.tasks = slices.Delete(h.tasks, at, at+1)
	return t
}

func ownerHasTasks(h *Host, owner auction.BidderID) bool {
	for _, t := range h.tasks {
		if t.Owner == owner {
			return true
		}
	}
	return false
}

// CancelTask aborts a running task: the VM is released, the owner is
// deactivated when this was their last task on the host, and OnDone does NOT
// fire. Progress already made is simply lost (the paper's jobs are
// restartable bag-of-tasks chunks).
func (c *Cluster) CancelTask(hostID, taskID string) error {
	h, err := c.Host(hostID)
	if err != nil {
		return err
	}
	t := h.removeTask(taskID)
	if t == nil {
		return fmt.Errorf("grid: unknown task %q on %q", taskID, hostID)
	}
	if err := h.VMs.Release(t.VMID, c.engine.Now()); err != nil {
		panic(fmt.Sprintf("grid: cancelling %s: %v", t.VMID, err))
	}
	if !ownerHasTasks(h, t.Owner) {
		_ = h.Market.SetActive(t.Owner, false)
	}
	return nil
}
