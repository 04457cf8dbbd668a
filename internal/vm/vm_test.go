package vm

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"testing"
	"time"

	"tycoongrid/internal/rng"
	"tycoongrid/internal/sim"
)

// host is a manager with the host it manages, as a grid host keeps them:
// its Acquire hands the manager the host's config.
type host struct {
	Manager
	cfg Config
}

func (h *host) Acquire(owner string, now time.Time) (*VM, error) {
	return h.Manager.Acquire(h.cfg, owner, now)
}

func mgr(t *testing.T, maxVMs int) *host {
	t.Helper()
	return &host{cfg: Config{HostID: "h1", MaxVMs: maxVMs, CreateOverhead: 60 * time.Second}}
}

func TestAcquireValidatesHost(t *testing.T) {
	var m Manager
	if _, err := m.Acquire(Config{MaxVMs: 1}, "alice", sim.Epoch); err == nil {
		t.Error("empty host accepted")
	}
	if _, err := m.Acquire(Config{HostID: "h", MaxVMs: 0}, "alice", sim.Epoch); err == nil {
		t.Error("MaxVMs=0 accepted")
	}
	if m.f != nil {
		t.Error("a refused boot made the fleet")
	}
}

func TestAcquireBootsWithOverhead(t *testing.T) {
	m := mgr(t, 5)
	now := sim.Epoch
	v, err := m.Acquire("alice", now)
	if err != nil {
		t.Fatal(err)
	}
	if v.State != StateRunning || v.ID != "h1-vm001" {
		t.Errorf("fresh VM %s is %v, want h1-vm001 running", v.ID, v.State)
	}
	if want := now.Add(time.Minute); !v.ReadyAt.Equal(want) {
		t.Errorf("ReadyAt = %v, want %v", v.ReadyAt, want)
	}
	if _, err := m.Acquire("", now); err == nil {
		t.Error("empty owner accepted")
	}
}

// TestReuseSameOwnerIsReadyAtOnce: a user's idle VM is reused, already
// booted, and of several the one with the lowest ID is.
func TestReuseSameOwnerIsReadyAtOnce(t *testing.T) {
	m := mgr(t, 5)
	now := sim.Epoch
	v1, err := m.Acquire("alice", now)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := m.Acquire("alice", now)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []*VM{v2, v1} {
		if err := m.Release(v.ID, now.Add(time.Hour)); err != nil {
			t.Fatal(err)
		}
	}
	v3, err := m.Acquire("alice", now.Add(2*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if v3.ID != v1.ID {
		t.Errorf("reused %s, want the lowest idle ID %s", v3.ID, v1.ID)
	}
	if !v3.ReadyAt.Equal(now.Add(2 * time.Hour)) {
		t.Errorf("reuse ReadyAt = %v, want no boot", v3.ReadyAt)
	}
	if v4, err := m.Acquire("alice", now.Add(2*time.Hour)); err != nil || v4.ID != v2.ID {
		t.Errorf("second reuse = %v, %v, want %s", v4, err, v2.ID)
	}
}

// TestAcquireFreshVMAllocationBound holds a boot to what it keeps: the VM record
// and its ID. The owner's first VM stays running, so every call boots a fresh
// one; it is released and purged again so that the host's maps keep their
// size.
func TestAcquireFreshVMAllocationBound(t *testing.T) {
	const bound = 2
	m := mgr(t, 5)
	now := sim.Epoch
	if _, err := m.Acquire("alice", now); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		v, err := m.Acquire("alice", now)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Release(v.ID, now); err != nil {
			t.Fatal(err)
		}
		if err := m.Purge(v.ID); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > bound {
		t.Errorf("a fresh VM allocates %v times, want at most %d (the record and its ID)", allocs, bound)
	}
}

// TestUnbootedManagerAllocatesNothing: a host that never booted a VM, most
// of a wide grid, holds no map, and everything but a boot still answers on it
// without allocating — the reaper's tick, the count, and the refusal of an
// unknown VM. Its first boot then works as on any host.
func TestUnbootedManagerAllocatesNothing(t *testing.T) {
	m := mgr(t, 5)
	now := sim.Epoch
	if m.f != nil {
		t.Fatal("a manager made its fleet before the first boot")
	}
	allocs := testing.AllocsPerRun(100, func() {
		if n := m.Live(); n != 0 {
			t.Fatalf("Live = %d on a host that never booted", n)
		}
		if n := m.PurgeIdleOlderThan(now.Add(time.Hour)); n != 0 {
			t.Fatalf("PurgeIdleOlderThan purged %d on a host that never booted", n)
		}
		if err := m.Release("h1-vm001", now); !errors.Is(err, ErrUnknownVM) {
			t.Fatalf("Release of an unknown VM = %v, want ErrUnknownVM", err)
		}
		if err := m.Purge("h1-vm001"); !errors.Is(err, ErrUnknownVM) {
			t.Fatalf("Purge of an unknown VM = %v, want ErrUnknownVM", err)
		}
	})
	if allocs != 0 {
		t.Errorf("a host that never booted allocates %v times a round, want 0", allocs)
	}
	v, err := m.Acquire("alice", now)
	if err != nil || v.ID != "h1-vm001" || v.State != StateRunning {
		t.Fatalf("first Acquire = %+v, %v, want h1-vm001 running", v, err)
	}
	if m.Live() != 1 || m.Running() != 1 {
		t.Errorf("after the first boot Live = %d, Running = %d, want 1 and 1", m.Live(), m.Running())
	}
	if err := m.Release(v.ID, now); err != nil {
		t.Errorf("Release after the first boot: %v", err)
	}
}

func TestNoCrossOwnerReuse(t *testing.T) {
	m := mgr(t, 5)
	now := sim.Epoch
	v1, _ := m.Acquire("alice", now)
	if err := m.Release(v1.ID, now); err != nil {
		t.Fatal(err)
	}
	v2, err := m.Acquire("bob", now)
	if err != nil {
		t.Fatal(err)
	}
	if v2.ID == v1.ID {
		t.Error("bob received alice's VM")
	}
}

func TestHostFull(t *testing.T) {
	m := mgr(t, 2)
	now := sim.Epoch
	for i := 0; i < 2; i++ {
		if _, err := m.Acquire(fmt.Sprintf("u%d", i), now); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Acquire("u9", now); !errors.Is(err, ErrHostFull) {
		t.Errorf("full host: %v", err)
	}
	if m.Live() != 2 || m.Running() != 2 {
		t.Errorf("live=%d running=%d", m.Live(), m.Running())
	}
}

func TestPurge(t *testing.T) {
	m := mgr(t, 2)
	now := sim.Epoch
	v, _ := m.Acquire("alice", now)
	if err := m.Purge(v.ID); !errors.Is(err, ErrBadState) {
		t.Errorf("purge running: %v", err)
	}
	if err := m.Release(v.ID, now); err != nil {
		t.Fatal(err)
	}
	if err := m.Purge(v.ID); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.vmsOf()[v.ID]; ok {
		t.Error("purged VM still visible")
	}
	// Slot freed: a full host can admit again.
	if _, err := m.Acquire("bob", now); err != nil {
		t.Errorf("slot not freed: %v", err)
	}
}

func TestPurgeIdleOlderThan(t *testing.T) {
	m := mgr(t, 10)
	now := sim.Epoch
	for i := 0; i < 3; i++ {
		v, _ := m.Acquire(fmt.Sprintf("u%d", i), now)
		if err := m.Release(v.ID, now.Add(time.Duration(i)*time.Hour)); err != nil {
			t.Fatal(err)
		}
	}
	busy, _ := m.Acquire("busy", now)
	_ = busy
	n := m.PurgeIdleOlderThan(now.Add(90 * time.Minute))
	if n != 2 {
		t.Errorf("purged %d, want 2 (idle at t0 and t+1h)", n)
	}
	if m.Live() != 2 {
		t.Errorf("live = %d", m.Live())
	}
}

func TestReleaseErrors(t *testing.T) {
	m := mgr(t, 5)
	if err := m.Release("nope", sim.Epoch); !errors.Is(err, ErrUnknownVM) {
		t.Errorf("unknown release: %v", err)
	}
	v, _ := m.Acquire("a", sim.Epoch)
	if err := m.Release(v.ID, sim.Epoch); err != nil {
		t.Fatal(err)
	}
	if err := m.Release(v.ID, sim.Epoch); !errors.Is(err, ErrBadState) {
		t.Errorf("double release: %v", err)
	}
}

func TestStateString(t *testing.T) {
	want := map[State]string{
		StateIdle: "idle", StateRunning: "running",
		StatePurged: "purged", State(99): "state(99)",
	}
	for s, str := range want {
		if s.String() != str {
			t.Errorf("%d.String() = %q", int(s), s.String())
		}
	}
}

func TestPurgeAll(t *testing.T) {
	m := mgr(t, 5)
	now := sim.Epoch
	running, err := m.Acquire("alice", now)
	if err != nil {
		t.Fatal(err)
	}
	idle, err := m.Acquire("bob", now)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Release(idle.ID, now); err != nil {
		t.Fatal(err)
	}
	if n := m.PurgeAll(); n != 2 {
		t.Errorf("PurgeAll = %d, want 2", n)
	}
	if m.Live() != 0 {
		t.Errorf("Live = %d after PurgeAll", m.Live())
	}
	if running.State != StatePurged || idle.State != StatePurged {
		t.Errorf("states = %v, %v, want purged", running.State, idle.State)
	}
	if _, ok := m.vmsOf()[running.ID]; ok {
		t.Error("VM still visible after PurgeAll")
	}
	// The host is empty again: new acquisitions start fresh.
	fresh, err := m.Acquire("alice", now)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.ID == running.ID {
		t.Error("purged VM ID reused for a fresh VM")
	}
	_ = fmt.Sprintf("%v", fresh)
}

// scanPurge is PurgeIdleOlderThan as it stood while it walked every VM on
// every call: the oracle for the reaper's early return.
func scanPurge(m *host, cutoff time.Time) int {
	var victims []string
	for id, v := range m.vmsOf() {
		if v.State == StateIdle && v.LastUsed.Before(cutoff) {
			victims = append(victims, id)
		}
	}
	n := 0
	for _, id := range victims {
		if m.Purge(id) == nil {
			n++
		}
	}
	return n
}

// TestPurgeIdleMatchesScanEveryTick drives twin managers — 12 running and 3
// idle VMs to begin with — through 1 000 reallocation ticks of releases,
// reuses, fresh boots and hand purges. One reaps through
// PurgeIdleOlderThan, which returns before walking while no idle VM can be
// old enough; the other scans every VM every tick. Every tick must purge the
// same number, and leave the same VMs in the same states.
func TestPurgeIdleMatchesScanEveryTick(t *testing.T) {
	const window = 5 * time.Minute
	fast, scan := mgr(t, 40), mgr(t, 40)
	now := sim.Epoch
	both := func(op func(m *host) error) {
		t.Helper()
		err1, err2 := op(fast), op(scan)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("at %v: managers disagree: %v vs %v", now.Sub(sim.Epoch), err1, err2)
		}
	}
	acquire := func(owner string) {
		both(func(m *host) error { _, err := m.Acquire(owner, now); return err })
	}
	// pick returns the n-th VM (by ID) in the given state, or "".
	pick := func(state State, n int) string {
		var ids []string
		for _, v := range scan.sorted() {
			if v.State == state {
				ids = append(ids, v.ID)
			}
		}
		if len(ids) == 0 {
			return ""
		}
		return ids[n%len(ids)]
	}
	for i := 0; i < 15; i++ {
		acquire(fmt.Sprintf("owner-%02d", i))
	}
	for i := 0; i < 3; i++ {
		id := pick(StateRunning, i*5)
		both(func(m *host) error { return m.Release(id, now) })
	}

	src := rng.New(3)
	purgedTicks, purged := 0, 0
	for tick := 0; tick < 1000; tick++ {
		now = now.Add(10 * time.Second)
		switch src.Intn(12) {
		case 0, 1: // a job ends: its VM goes idle
			if id := pick(StateRunning, src.Intn(40)); id != "" {
				both(func(m *host) error { return m.Release(id, now) })
			}
		case 2, 3: // a job starts: reuse the owner's idle VM or boot one
			acquire(fmt.Sprintf("owner-%02d", src.Intn(20)))
		case 4: // none at first: the first reap must come from Release's bound alone
			if id := pick(StateIdle, src.Intn(40)); id != "" && tick > 100 && src.Intn(4) == 0 {
				both(func(m *host) error { return m.Purge(id) })
			}
		}
		n1, n2 := fast.PurgeIdleOlderThan(now.Add(-window)), scanPurge(scan, now.Add(-window))
		if n1 != n2 {
			t.Fatalf("tick %d: purged %d, scan-every-tick twin purged %d", tick, n1, n2)
		}
		if n2 > 0 {
			purgedTicks++
			purged += n2
		}
		a, b := fast.sorted(), scan.sorted()
		if len(a) != len(b) {
			t.Fatalf("tick %d: %d VMs live, twin %d", tick, len(a), len(b))
		}
		for i := range a {
			if a[i].ID != b[i].ID || a[i].State != b[i].State || !a[i].LastUsed.Equal(b[i].LastUsed) {
				t.Fatalf("tick %d: VM %s %v, twin %s %v", tick, a[i].ID, a[i].State, b[i].ID, b[i].State)
			}
		}
	}
	if purgedTicks < 20 || purged < 30 {
		t.Fatalf("schedule reaped %d VMs over %d ticks; want >= 30 over >= 20", purged, purgedTicks)
	}
}

// sorted returns VMs ordered by ID for deterministic iteration.
func (m *Manager) sorted() []*VM {
	out := make([]*VM, 0, m.Live())
	for _, v := range m.vmsOf() {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// TestPurgingTheLastVMLetsTheMapsGo: a host whose last VM is purged — by
// hand or by the reaper — holds no map again, as after PurgeAll, so a
// long-lived host that reaps its jobs' VMs keeps only its fleet between jobs:
// boot–purge cycles by ever new owners retain nothing, and VM IDs keep
// counting.
func TestPurgingTheLastVMLetsTheMapsGo(t *testing.T) {
	const cycles, maxRetained = 2000, 2048
	m := mgr(t, 5)
	now := sim.Epoch
	booted := 0
	cycle := func(owner string, reap bool) {
		v, err := m.Acquire(owner, now)
		if err != nil {
			t.Fatal(err)
		}
		if booted++; v.ID != fmt.Sprintf("h1-vm%03d", booted) {
			t.Fatalf("boot %d named its VM %s: the host's VM count started again", booted, v.ID)
		}
		if err := m.Release(v.ID, now); err != nil {
			t.Fatal(err)
		}
		if reap {
			if n := m.PurgeIdleOlderThan(now.Add(time.Second)); n != 1 {
				t.Fatalf("the reaper purged %d VMs, want 1", n)
			}
		} else if err := m.Purge(v.ID); err != nil {
			t.Fatal(err)
		}
		if m.f.vms != nil || m.f.byOwner != nil || m.Live() != 0 {
			t.Fatalf("after purging its last VM (reaper %v) the host keeps its maps", reap)
		}
	}
	cycle("alice", false)
	cycle("bob", true)
	owners := make([]string, cycles)
	for i := range owners {
		owners[i] = fmt.Sprintf("u%05d", i)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i, owner := range owners {
		cycle(owner, i%2 == 0)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(m)
	runtime.KeepAlive(owners)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > maxRetained {
		t.Errorf("%d boot–purge cycles left the heap %d B larger, want at most %d", cycles, grew, maxRetained)
	}
}
