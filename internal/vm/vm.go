// Package vm models the virtualization substrate Tycoon runs on (Xen in the
// paper; see DESIGN.md §2 for the substitution). A Manager tracks the
// virtual machines of one physical host: creation with a configurable setup
// overhead, automatic software installation ("yum") for requested runtime
// environments, reuse of a user's existing VM between jobs on the same host
// (with scratch space wiped — "no application data or scratch space is
// shared by different jobs"), purging to free capacity, and the host-wide
// VM limit that caps how many virtual CPUs the Grid monitor can report (the
// paper's ~15 VMs per physical node).
package vm

import (
	"errors"
	"fmt"
	"sort"
	"time"
)

// State is a virtual machine lifecycle state.
type State int

// VM lifecycle states.
const (
	StateCreating State = iota
	StateIdle
	StateRunning
	StatePurged
)

// String renders the state for logs and the grid monitor.
func (s State) String() string {
	switch s {
	case StateCreating:
		return "creating"
	case StateIdle:
		return "idle"
	case StateRunning:
		return "running"
	case StatePurged:
		return "purged"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// VM is one virtual machine.
type VM struct {
	ID       string
	Owner    string // the user the VM is dedicated to
	State    State
	Envs     map[string]bool // installed runtime environments
	ReadyAt  time.Time       // when creation/installation completes
	Scratch  int             // generation counter; bumps when scratch is wiped
	JobsRun  int
	Created  time.Time
	LastUsed time.Time
}

// Config tunes a host's VM manager.
type Config struct {
	HostID string
	// MaxVMs caps concurrently existing (non-purged) VMs; the paper reports
	// about 15 virtual CPUs per physical node.
	MaxVMs int
	// CreateOverhead is the virtual-machine boot cost.
	CreateOverhead time.Duration
	// InstallOverhead is the per-runtime-environment software install cost.
	InstallOverhead time.Duration
	// VirtOverhead is the fraction of CPU lost to virtualization, in [0, 0.5];
	// the paper cites 1-5% for Xen.
	VirtOverhead float64
}

// Manager owns the VMs of one host. It is not safe for concurrent use; the
// grid layer serializes access per host.
type Manager struct {
	cfg     Config
	vms     map[string]*VM
	byOwner map[string]map[string]*VM
	seq     int
	// idleSince is a lower bound on the LastUsed of every idle VM while
	// anyIdle, so the per-tick reaper can tell without a walk that nothing
	// is old enough yet. Release lowers it; a reaper scan recomputes it
	// exactly. It may lag low (a VM reused or purged by hand since), which
	// costs one scan, never a missed victim.
	idleSince time.Time
	anyIdle   bool
}

// Errors returned by the manager.
var (
	ErrHostFull  = errors.New("vm: host VM limit reached")
	ErrUnknownVM = errors.New("vm: unknown vm")
	ErrBadState  = errors.New("vm: operation invalid in current state")
)

// NewManager validates cfg and returns a manager.
func NewManager(cfg Config) (*Manager, error) {
	if cfg.HostID == "" {
		return nil, errors.New("vm: empty host id")
	}
	if cfg.MaxVMs < 1 {
		return nil, fmt.Errorf("vm: MaxVMs %d, want >= 1", cfg.MaxVMs)
	}
	if cfg.VirtOverhead < 0 || cfg.VirtOverhead > 0.5 {
		return nil, fmt.Errorf("vm: VirtOverhead %v outside [0, 0.5]", cfg.VirtOverhead)
	}
	return &Manager{
		cfg:     cfg,
		vms:     make(map[string]*VM),
		byOwner: make(map[string]map[string]*VM),
	}, nil
}

// EffectiveCapacity converts raw host MHz to what VMs actually deliver after
// the virtualization overhead.
func (m *Manager) EffectiveCapacity(rawMHz float64) float64 {
	return rawMHz * (1 - m.cfg.VirtOverhead)
}

// Acquire finds or creates a VM for owner with the given runtime
// environments installed, at time now. Reuse policy (paper §3): a user may
// reuse their own idle VM on the same physical host; scratch
// is always wiped. The returned VM is in StateRunning; its ReadyAt tells the
// caller when the job can actually start (boot/install overheads).
func (m *Manager) Acquire(owner string, envs []string, now time.Time) (*VM, error) {
	if owner == "" {
		return nil, errors.New("vm: empty owner")
	}
	// Prefer reusing the owner's idle VM with the most environments already
	// installed; deterministic tie-break on ID. Selection scans only this
	// owner's VMs (the per-owner index) — this sits on the scheduler's
	// retry path, so it must stay cheap even on hosts crowded with other
	// users' machines.
	var best *VM
	bestMissing := 0
	for _, v := range m.byOwner[owner] {
		if v.State != StateIdle {
			continue
		}
		miss := missingEnvs(v, envs)
		if best == nil || miss < bestMissing || (miss == bestMissing && v.ID < best.ID) {
			best = v
			bestMissing = miss
		}
	}
	if best != nil {
		ready := now.Add(time.Duration(missingEnvs(best, envs)) * m.cfg.InstallOverhead)
		for _, e := range envs {
			best.Envs[e] = true
		}
		best.State = StateRunning
		best.ReadyAt = ready
		best.Scratch++ // no scratch sharing between jobs
		best.JobsRun++
		best.LastUsed = now
		return best, nil
	}

	if m.liveCount() >= m.cfg.MaxVMs {
		// Returned unwrapped: this is the scheduler's hot retry path and
		// formatting a fresh error each attempt dominated profiles.
		return nil, ErrHostFull
	}
	m.seq++
	v := &VM{
		ID:       fmt.Sprintf("%s-vm%03d", m.cfg.HostID, m.seq),
		Owner:    owner,
		State:    StateRunning,
		Envs:     make(map[string]bool, len(envs)),
		Created:  now,
		LastUsed: now,
		JobsRun:  1,
		ReadyAt:  now.Add(m.cfg.CreateOverhead + time.Duration(len(envs))*m.cfg.InstallOverhead),
	}
	for _, e := range envs {
		v.Envs[e] = true
	}
	m.vms[v.ID] = v
	if m.byOwner[owner] == nil {
		m.byOwner[owner] = make(map[string]*VM)
	}
	m.byOwner[owner][v.ID] = v
	return v, nil
}

func missingEnvs(v *VM, envs []string) int {
	n := 0
	for _, e := range envs {
		if !v.Envs[e] {
			n++
		}
	}
	return n
}

// Release marks a running VM idle after its job finishes.
func (m *Manager) Release(id string, now time.Time) error {
	v, ok := m.vms[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownVM, id)
	}
	if v.State != StateRunning {
		return fmt.Errorf("%w: release of %s vm", ErrBadState, v.State)
	}
	v.State = StateIdle
	v.LastUsed = now
	m.noteIdle(now)
	return nil
}

// noteIdle lowers the reaper's bound to cover a VM idle since at.
func (m *Manager) noteIdle(at time.Time) {
	if !m.anyIdle || at.Before(m.idleSince) {
		m.idleSince, m.anyIdle = at, true
	}
}

// Purge destroys an idle VM, freeing a slot.
func (m *Manager) Purge(id string) error {
	v, ok := m.vms[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownVM, id)
	}
	if v.State == StateRunning || v.State == StateCreating {
		return fmt.Errorf("%w: purge of %s vm", ErrBadState, v.State)
	}
	v.State = StatePurged
	delete(m.vms, id)
	if own := m.byOwner[v.Owner]; own != nil {
		delete(own, id)
		if len(own) == 0 {
			delete(m.byOwner, v.Owner)
		}
	}
	return nil
}

// PurgeIdleOlderThan purges VMs idle since before cutoff; returns how many.
// It runs every reallocation tick when the cluster enables purging, so it
// costs nothing while no idle VM can be old enough (see idleSince), and when
// it does walk it avoids sorting: purge order does not affect the outcome
// (every victim is removed).
func (m *Manager) PurgeIdleOlderThan(cutoff time.Time) int {
	if !m.anyIdle || !m.idleSince.Before(cutoff) {
		return 0 // the common case: nothing idle, or nothing idle long enough
	}
	var victims []string
	m.anyIdle = false
	for id, v := range m.vms {
		if v.State != StateIdle {
			continue
		}
		if v.LastUsed.Before(cutoff) {
			victims = append(victims, id)
		} else {
			m.noteIdle(v.LastUsed)
		}
	}
	n := 0
	for _, id := range victims {
		if err := m.Purge(id); err == nil {
			n++
		}
	}
	return n
}

// PurgeAll destroys every VM regardless of state and returns how many were
// destroyed. This is the host-crash path: a crashed node loses all VM images
// at once, running ones included, so the usual Purge state check does not
// apply.
func (m *Manager) PurgeAll() int {
	n := len(m.vms)
	for _, v := range m.vms {
		v.State = StatePurged
	}
	m.vms = make(map[string]*VM)
	m.byOwner = make(map[string]map[string]*VM)
	m.anyIdle = false
	return n
}

// liveCount counts non-purged VMs.
func (m *Manager) liveCount() int { return len(m.vms) }

// Live returns the number of existing VMs.
func (m *Manager) Live() int { return m.liveCount() }

// Running returns the number of VMs currently executing jobs.
func (m *Manager) Running() int {
	n := 0
	for _, v := range m.vms {
		if v.State == StateRunning {
			n++
		}
	}
	return n
}

// sorted returns VMs ordered by ID for deterministic iteration.
func (m *Manager) sorted() []*VM {
	out := make([]*VM, 0, len(m.vms))
	for _, v := range m.vms {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
