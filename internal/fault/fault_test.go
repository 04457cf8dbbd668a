package fault

import (
	"fmt"
	"testing"
	"time"

	"tycoongrid/internal/grid"
	"tycoongrid/internal/sim"
)

func testCluster(t *testing.T, n int) *grid.Cluster {
	t.Helper()
	eng := sim.NewEngine()
	specs := make([]grid.HostSpec, n)
	for i := range specs {
		specs[i] = grid.HostSpec{ID: fmt.Sprintf("h%02d", i), CPUs: 2, CPUMHz: 2800, MaxVMs: 30}
	}
	c, err := grid.New(eng, grid.Config{Hosts: specs})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	return c
}

// downHosts lists the cluster's failed hosts in ID order.
func downHosts(t *testing.T, c *grid.Cluster) []string {
	t.Helper()
	var down []string
	for _, id := range c.HostIDs() {
		h, err := c.Host(id)
		if err != nil {
			t.Fatal(err)
		}
		if h.Down() {
			down = append(down, id)
		}
	}
	return down
}

func TestInjectorChurnsHosts(t *testing.T) {
	c := testCluster(t, 10)
	inj, err := NewInjector(c, InjectorConfig{Seed: 42, MTTF: 10 * time.Minute, MTTR: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	var failed []string
	c.OnHostFailure = func(f grid.HostFailure) { failed = append(failed, f.HostID) }
	if err := inj.Start(); err != nil {
		t.Fatal(err)
	}
	if err := inj.Start(); err == nil {
		t.Error("double start accepted")
	}
	c.Engine().RunFor(2 * time.Hour)
	// 10 hosts, MTTF 10 min over 2 h: expect on the order of 100 crashes;
	// anything in double digits proves the cycle is running.
	if inj.Failures() < 20 {
		t.Errorf("failures = %d, want >= 20", inj.Failures())
	}
	if inj.Recoveries() < 20 || inj.Recoveries() > inj.Failures() {
		t.Errorf("recoveries = %d (failures %d)", inj.Recoveries(), inj.Failures())
	}
	if len(failed) != inj.Failures() {
		t.Errorf("failure callbacks: %d, counter: %d", len(failed), inj.Failures())
	}
	// Every crash not yet repaired leaves its host down.
	if down := downHosts(t, c); len(down) != inj.Failures()-inj.Recoveries() {
		t.Errorf("%d hosts down, want failures - recoveries = %d", len(down), inj.Failures()-inj.Recoveries())
	}
}

func TestInjectorDeterministic(t *testing.T) {
	run := func() []string {
		c := testCluster(t, 5)
		inj, err := NewInjector(c, InjectorConfig{Seed: 7, MTTF: 5 * time.Minute, MTTR: 30 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		var trace []string
		c.OnHostFailure = func(f grid.HostFailure) {
			trace = append(trace, fmt.Sprintf("F %s %s", f.HostID, c.Engine().Now().Format(time.RFC3339Nano)))
		}
		if err := inj.Start(); err != nil {
			t.Fatal(err)
		}
		c.Engine().RunFor(time.Hour)
		// A host's next crash is drawn when it recovers, so the failure times
		// already carry the recovery times; the count and who is still down
		// close the trace.
		return append(trace, fmt.Sprintf("R %d down %v", inj.Recoveries(), downHosts(t, c)))
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("no churn events")
	}
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestInjectorStop(t *testing.T) {
	c := testCluster(t, 3)
	inj, err := NewInjector(c, InjectorConfig{Seed: 1, MTTF: time.Minute, MTTR: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if err := inj.Start(); err != nil {
		t.Fatal(err)
	}
	c.Engine().RunFor(10 * time.Minute)
	inj.Stop()
	before := inj.Failures()
	c.Engine().RunFor(time.Hour)
	if inj.Failures() != before {
		t.Errorf("failures after Stop: %d -> %d", before, inj.Failures())
	}
	inj.Stop() // idempotent
}

func TestInjectorValidation(t *testing.T) {
	if _, err := NewInjector(nil, InjectorConfig{}); err == nil {
		t.Error("nil cluster accepted")
	}
	c := testCluster(t, 1)
	if _, err := NewInjector(c, InjectorConfig{Hosts: []string{"nope"}}); err == nil {
		t.Error("unknown host accepted")
	}
	if _, err := NewInjector(c, InjectorConfig{Hosts: []string{}}); err == nil {
		t.Error("empty host list accepted")
	}
}
