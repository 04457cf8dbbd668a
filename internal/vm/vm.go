// Package vm models the virtualization substrate Tycoon runs on (Xen in the
// paper; see DESIGN.md §2 for the substitution). A Manager tracks the
// virtual machines of one physical host: creation with a configurable boot
// overhead, reuse of a user's idle VM between jobs on the same host, purging
// to free capacity, and the host-wide VM limit that caps how many virtual
// CPUs the Grid monitor can report (the paper's ~15 VMs per physical node).
// A VM delivers its host's raw CPU: the market sells the host's capacity as
// the spec gives it.
package vm

import (
	"errors"
	"fmt"
	"strconv"
	"time"
)

// State is a virtual machine lifecycle state.
type State int

// VM lifecycle states.
const (
	StateIdle State = iota
	StateRunning
	StatePurged
)

// String renders the state for logs and the grid monitor.
func (s State) String() string {
	switch s {
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
	ReadyAt  time.Time // when the VM has booted
	LastUsed time.Time
}

// Config describes the host a manager's VMs run on. Its owner keeps it (a
// grid host's spec) and hands it to every Acquire, the one call that boots.
type Config struct {
	HostID string
	// MaxVMs caps concurrently existing (non-purged) VMs; the paper reports
	// about 15 virtual CPUs per physical node.
	MaxVMs int
	// CreateOverhead is the virtual-machine boot cost.
	CreateOverhead time.Duration
}

// Manager owns the VMs of one host. Its zero value is ready and holds none:
// the first boot (Acquire) makes its fleet, so a host that never ran a job,
// most of a wide grid, holds one nil pointer. It is not safe for concurrent
// use; the grid layer serializes access per host.
type Manager struct {
	f *fleet
}

// fleet is what a manager keeps from its first boot on. vms and byOwner are
// nil while no VM exists — before the first boot, and again once the last VM
// is purged — and every method but Acquire only reads or deletes, which a
// nil map allows. seq outlives them, so a VM ID is never reused.
type fleet struct {
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

// vmsOf returns the live VMs: none before the first boot.
func (m *Manager) vmsOf() map[string]*VM {
	if m.f == nil {
		return nil
	}
	return m.f.vms
}

// Errors returned by the manager.
var (
	ErrHostFull  = errors.New("vm: host VM limit reached")
	ErrUnknownVM = errors.New("vm: unknown vm")
	ErrBadState  = errors.New("vm: operation invalid in current state")
)

// Acquire finds or creates a VM for owner at time now on the host described
// by host. Reuse policy (paper
// §3): a user may reuse their own idle VM on the same physical host, the one
// with the lowest ID if there are several (the paper wipes its scratch space
// between jobs; the model keeps none). The returned VM is in StateRunning;
// its ReadyAt tells the caller when the job can actually start (a fresh VM's
// boot).
func (m *Manager) Acquire(host Config, owner string, now time.Time) (*VM, error) {
	if host.HostID == "" || host.MaxVMs < 1 {
		return nil, fmt.Errorf("vm: host %q with MaxVMs %d, want an id and >= 1", host.HostID, host.MaxVMs)
	}
	if owner == "" {
		return nil, errors.New("vm: empty owner")
	}
	if m.f == nil {
		m.f = new(fleet)
	}
	f := m.f
	// Selection scans only this owner's VMs (the per-owner index) — this
	// sits on the scheduler's retry path, so it must stay cheap even on
	// hosts crowded with other users' machines.
	var best *VM
	for _, v := range f.byOwner[owner] {
		if v.State == StateIdle && (best == nil || v.ID < best.ID) {
			best = v
		}
	}
	if best != nil {
		best.State = StateRunning
		best.ReadyAt = now
		best.LastUsed = now
		return best, nil
	}

	if len(f.vms) >= host.MaxVMs {
		// Returned unwrapped: this is the scheduler's hot retry path and
		// formatting a fresh error each attempt dominated profiles.
		return nil, ErrHostFull
	}
	v := &VM{
		ID:       f.nextID(host.HostID),
		Owner:    owner,
		State:    StateRunning,
		LastUsed: now,
		ReadyAt:  now.Add(host.CreateOverhead),
	}
	if f.vms == nil {
		f.vms, f.byOwner = make(map[string]*VM), make(map[string]map[string]*VM)
	}
	f.vms[v.ID] = v
	if f.byOwner[owner] == nil {
		f.byOwner[owner] = make(map[string]*VM)
	}
	f.byOwner[owner][v.ID] = v
	return v, nil
}

// nextID names the host's next VM "<host>-vm<seq>", seq zero-padded to three
// digits. It allocates the string alone: a VM boots on the scheduler's path.
func (f *fleet) nextID(hostID string) string {
	f.seq++
	var buf [20]byte
	seq := strconv.AppendInt(buf[:0], int64(f.seq), 10)
	return hostID + "-vm" + "00"[:max(0, 3-len(seq))] + string(seq)
}

// Release marks a running VM idle after its job finishes. An unknown id is
// ErrUnknownVM itself, unwrapped like ErrHostFull: the caller knows the id it
// asked for, and a refusal allocates nothing.
func (m *Manager) Release(id string, now time.Time) error {
	v, ok := m.vmsOf()[id]
	if !ok {
		return ErrUnknownVM
	}
	if v.State != StateRunning {
		return fmt.Errorf("%w: release of %s vm", ErrBadState, v.State)
	}
	v.State = StateIdle
	v.LastUsed = now
	m.f.noteIdle(now)
	return nil
}

// noteIdle lowers the reaper's bound to cover a VM idle since at.
func (f *fleet) noteIdle(at time.Time) {
	if !f.anyIdle || at.Before(f.idleSince) {
		f.idleSince, f.anyIdle = at, true
	}
}

// Purge destroys an idle VM, freeing a slot. An unknown id is ErrUnknownVM,
// as for Release. Purging the last VM lets the maps go, as PurgeAll does.
func (m *Manager) Purge(id string) error {
	v, ok := m.vmsOf()[id]
	if !ok {
		return ErrUnknownVM
	}
	if v.State == StateRunning {
		return fmt.Errorf("%w: purge of %s vm", ErrBadState, v.State)
	}
	v.State = StatePurged
	f := m.f
	delete(f.vms, id)
	if own := f.byOwner[v.Owner]; own != nil {
		delete(own, id)
		if len(own) == 0 {
			delete(f.byOwner, v.Owner)
		}
	}
	if len(f.vms) == 0 {
		f.vms, f.byOwner = nil, nil // the next boot makes them again
	}
	return nil
}

// PurgeIdleOlderThan purges VMs idle since before cutoff; returns how many.
// It runs every reallocation tick when the cluster enables purging, so it
// costs nothing while no idle VM can be old enough (see idleSince), and when
// it does walk it avoids sorting: purge order does not affect the outcome
// (every victim is removed).
func (m *Manager) PurgeIdleOlderThan(cutoff time.Time) int {
	f := m.f
	if f == nil || !f.anyIdle || !f.idleSince.Before(cutoff) {
		return 0 // the common case: nothing idle, or nothing idle long enough
	}
	var victims []string
	f.anyIdle = false
	for id, v := range f.vms {
		if v.State != StateIdle {
			continue
		}
		if v.LastUsed.Before(cutoff) {
			victims = append(victims, id)
		} else {
			f.noteIdle(v.LastUsed)
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
	f := m.f
	if f == nil {
		return 0
	}
	n := len(f.vms)
	for _, v := range f.vms {
		v.State = StatePurged
	}
	f.vms, f.byOwner = nil, nil // the next boot makes them again
	f.anyIdle = false
	return n
}

// Live returns the number of existing VMs.
func (m *Manager) Live() int { return len(m.vmsOf()) }

// Running returns the number of VMs currently executing jobs.
func (m *Manager) Running() int {
	n := 0
	for _, v := range m.vmsOf() {
		if v.State == StateRunning {
			n++
		}
	}
	return n
}
