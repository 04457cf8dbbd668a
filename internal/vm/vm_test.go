package vm

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"tycoongrid/internal/rng"
	"tycoongrid/internal/sim"
)

func mgr(t *testing.T, maxVMs int) *Manager {
	t.Helper()
	m, err := NewManager(Config{
		HostID:          "h1",
		MaxVMs:          maxVMs,
		CreateOverhead:  60 * time.Second,
		InstallOverhead: 30 * time.Second,
		VirtOverhead:    0.03,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewManagerValidation(t *testing.T) {
	if _, err := NewManager(Config{MaxVMs: 1}); err == nil {
		t.Error("empty host accepted")
	}
	if _, err := NewManager(Config{HostID: "h", MaxVMs: 0}); err == nil {
		t.Error("MaxVMs=0 accepted")
	}
	if _, err := NewManager(Config{HostID: "h", MaxVMs: 1, VirtOverhead: 0.9}); err == nil {
		t.Error("90% overhead accepted")
	}
}

func TestEffectiveCapacity(t *testing.T) {
	m := mgr(t, 5)
	if got := m.EffectiveCapacity(1000); got != 970 {
		t.Errorf("effective = %v, want 970", got)
	}
}

func TestAcquireCreatesWithOverheads(t *testing.T) {
	m := mgr(t, 5)
	now := sim.Epoch
	v, err := m.Acquire("alice", []string{"BLAST", "PYTHON"}, now)
	if err != nil {
		t.Fatal(err)
	}
	if v.State != StateRunning {
		t.Errorf("state = %v", v.State)
	}
	// Boot 60s + 2 installs x 30s.
	if want := now.Add(2 * time.Minute); !v.ReadyAt.Equal(want) {
		t.Errorf("ReadyAt = %v, want %v", v.ReadyAt, want)
	}
	if !v.Envs["BLAST"] || !v.Envs["PYTHON"] {
		t.Error("envs not installed")
	}
	if _, err := m.Acquire("", nil, now); err == nil {
		t.Error("empty owner accepted")
	}
}

func TestReuseSameOwnerWipesScratch(t *testing.T) {
	m := mgr(t, 5)
	now := sim.Epoch
	v1, err := m.Acquire("alice", []string{"BLAST"}, now)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Release(v1.ID, now.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	gen := v1.Scratch
	v2, err := m.Acquire("alice", []string{"BLAST"}, now.Add(2*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if v2.ID != v1.ID {
		t.Error("same-owner VM not reused")
	}
	// No new installs needed: ready immediately.
	if !v2.ReadyAt.Equal(now.Add(2 * time.Hour)) {
		t.Errorf("reuse ReadyAt = %v", v2.ReadyAt)
	}
	if v2.Scratch == gen {
		t.Error("scratch not wiped between jobs")
	}
	if v2.JobsRun != 2 {
		t.Errorf("JobsRun = %d", v2.JobsRun)
	}
	if m.Stats().Reused != 1 {
		t.Errorf("reused = %d", m.Stats().Reused)
	}
}

func TestReuseInstallsMissingEnvs(t *testing.T) {
	m := mgr(t, 5)
	now := sim.Epoch
	v1, _ := m.Acquire("alice", []string{"BLAST"}, now)
	if err := m.Release(v1.ID, now); err != nil {
		t.Fatal(err)
	}
	v2, err := m.Acquire("alice", []string{"BLAST", "R"}, now)
	if err != nil {
		t.Fatal(err)
	}
	if v2.ID != v1.ID {
		t.Fatal("expected reuse")
	}
	if want := now.Add(30 * time.Second); !v2.ReadyAt.Equal(want) {
		t.Errorf("ReadyAt = %v, want one install overhead", v2.ReadyAt)
	}
}

func TestNoCrossOwnerReuse(t *testing.T) {
	m := mgr(t, 5)
	now := sim.Epoch
	v1, _ := m.Acquire("alice", nil, now)
	if err := m.Release(v1.ID, now); err != nil {
		t.Fatal(err)
	}
	v2, err := m.Acquire("bob", nil, now)
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
		if _, err := m.Acquire(fmt.Sprintf("u%d", i), nil, now); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Acquire("u9", nil, now); !errors.Is(err, ErrHostFull) {
		t.Errorf("full host: %v", err)
	}
	if m.Live() != 2 || m.Running() != 2 {
		t.Errorf("live=%d running=%d", m.Live(), m.Running())
	}
}

func TestHibernateAndResume(t *testing.T) {
	m := mgr(t, 5)
	now := sim.Epoch
	v, _ := m.Acquire("alice", nil, now)
	if err := m.Hibernate(v.ID); !errors.Is(err, ErrBadState) {
		t.Errorf("hibernate running: %v", err)
	}
	if err := m.Release(v.ID, now); err != nil {
		t.Fatal(err)
	}
	if err := m.Hibernate(v.ID); err != nil {
		t.Fatal(err)
	}
	// Resuming costs half the boot overhead.
	v2, err := m.Acquire("alice", nil, now.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if v2.ID != v.ID {
		t.Fatal("hibernated VM not reused")
	}
	if want := now.Add(time.Hour).Add(30 * time.Second); !v2.ReadyAt.Equal(want) {
		t.Errorf("resume ReadyAt = %v, want %v", v2.ReadyAt, want)
	}
}

func TestPurge(t *testing.T) {
	m := mgr(t, 2)
	now := sim.Epoch
	v, _ := m.Acquire("alice", nil, now)
	if err := m.Purge(v.ID); !errors.Is(err, ErrBadState) {
		t.Errorf("purge running: %v", err)
	}
	if err := m.Release(v.ID, now); err != nil {
		t.Fatal(err)
	}
	if err := m.Purge(v.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Get(v.ID); !errors.Is(err, ErrUnknownVM) {
		t.Errorf("purged VM still visible: %v", err)
	}
	// Slot freed: a full host can admit again.
	if _, err := m.Acquire("bob", nil, now); err != nil {
		t.Errorf("slot not freed: %v", err)
	}
	if m.Stats().Purged != 1 {
		t.Errorf("purged = %d", m.Stats().Purged)
	}
}

func TestPurgeIdleOlderThan(t *testing.T) {
	m := mgr(t, 10)
	now := sim.Epoch
	for i := 0; i < 3; i++ {
		v, _ := m.Acquire(fmt.Sprintf("u%d", i), nil, now)
		if err := m.Release(v.ID, now.Add(time.Duration(i)*time.Hour)); err != nil {
			t.Fatal(err)
		}
	}
	busy, _ := m.Acquire("busy", nil, now)
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
	v, _ := m.Acquire("a", nil, sim.Epoch)
	if err := m.Release(v.ID, sim.Epoch); err != nil {
		t.Fatal(err)
	}
	if err := m.Release(v.ID, sim.Epoch); !errors.Is(err, ErrBadState) {
		t.Errorf("double release: %v", err)
	}
}

func TestStateString(t *testing.T) {
	want := map[State]string{
		StateCreating: "creating", StateIdle: "idle", StateRunning: "running",
		StateHibernated: "hibernated", StatePurged: "purged", State(99): "state(99)",
	}
	for s, str := range want {
		if s.String() != str {
			t.Errorf("%d.String() = %q", int(s), s.String())
		}
	}
}

func TestReusePrefersFewestMissingEnvs(t *testing.T) {
	m := mgr(t, 5)
	now := sim.Epoch
	a, _ := m.Acquire("u", []string{"BLAST"}, now)
	if err := m.Release(a.ID, now); err != nil {
		t.Fatal(err)
	}
	b, _ := m.Acquire("u", []string{"R", "PYTHON"}, now)
	if b.ID == a.ID {
		// Reused a; install both. Fine, but then release both and ask for R.
		t.Skip("single VM reused; preference unobservable")
	}
	if err := m.Release(b.ID, now); err != nil {
		t.Fatal(err)
	}
	c, err := m.Acquire("u", []string{"R"}, now)
	if err != nil {
		t.Fatal(err)
	}
	if c.ID != b.ID {
		t.Errorf("picked %s, want the VM that already has R (%s)", c.ID, b.ID)
	}
}

func TestPurgeAll(t *testing.T) {
	m := mgr(t, 5)
	now := sim.Epoch
	running, err := m.Acquire("alice", nil, now)
	if err != nil {
		t.Fatal(err)
	}
	idle, err := m.Acquire("bob", nil, now)
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
	if _, err := m.Get(running.ID); !errors.Is(err, ErrUnknownVM) {
		t.Errorf("Get after PurgeAll: %v", err)
	}
	if got := m.Stats().Purged; got != 2 {
		t.Errorf("Stats().Purged = %d, want 2", got)
	}
	// The host is empty again: new acquisitions start fresh.
	fresh, err := m.Acquire("alice", nil, now)
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
func scanPurge(m *Manager, cutoff time.Time) int {
	var victims []string
	for id, v := range m.vms {
		if (v.State == StateIdle || v.State == StateHibernated) && v.LastUsed.Before(cutoff) {
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
// reuses, fresh boots, hibernations and hand purges. One reaps through
// PurgeIdleOlderThan, which returns before walking while no idle VM can be
// old enough; the other scans every VM every tick. Every tick must purge the
// same number, and leave the same VMs in the same states.
func TestPurgeIdleMatchesScanEveryTick(t *testing.T) {
	const window = 5 * time.Minute
	fast, scan := mgr(t, 40), mgr(t, 40)
	now := sim.Epoch
	both := func(op func(m *Manager) error) {
		t.Helper()
		err1, err2 := op(fast), op(scan)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("at %v: managers disagree: %v vs %v", now.Sub(sim.Epoch), err1, err2)
		}
	}
	acquire := func(owner string) {
		both(func(m *Manager) error { _, err := m.Acquire(owner, nil, now); return err })
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
		both(func(m *Manager) error { return m.Release(id, now) })
	}

	src := rng.New(3)
	purgedTicks, purged := 0, 0
	for tick := 0; tick < 1000; tick++ {
		now = now.Add(10 * time.Second)
		switch src.Intn(12) {
		case 0, 1: // a job ends: its VM goes idle
			if id := pick(StateRunning, src.Intn(40)); id != "" {
				both(func(m *Manager) error { return m.Release(id, now) })
			}
		case 2, 3: // a job starts: reuse the owner's idle VM or boot one
			acquire(fmt.Sprintf("owner-%02d", src.Intn(20)))
		case 4: // none at first: the first reap must come from Release's bound alone
			if id := pick(StateIdle, src.Intn(40)); id != "" && tick > 100 {
				both(func(m *Manager) error { return m.Hibernate(id) })
			}
		case 5:
			if id := pick(StateHibernated, src.Intn(40)); id != "" && src.Intn(4) == 0 {
				both(func(m *Manager) error { return m.Purge(id) })
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
		if fast.Stats() != scan.Stats() {
			t.Fatalf("tick %d: stats %+v, twin %+v", tick, fast.Stats(), scan.Stats())
		}
	}
	if purgedTicks < 20 || purged < 30 {
		t.Fatalf("schedule reaped %d VMs over %d ticks; want >= 30 over >= 20", purged, purgedTicks)
	}
}
