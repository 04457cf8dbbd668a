package box

import (
	"fmt"
	"testing"
	"time"

	"tycoongrid/internal/grid"
)

// churned builds an empty world of n hosts churning at mttf and mttr from seed.
func churned(t *testing.T, n int, seed int64, mttf, mttr time.Duration) *Box {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Hosts, cfg.Seed, cfg.Churn = n, seed, Churn{MTTF: mttf, MTTR: mttr}
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return b
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

func TestChurnFailsAndRepairsHosts(t *testing.T) {
	b := churned(t, 10, 42, 10*time.Minute, time.Minute)
	b.Engine.RunFor(2 * time.Hour)
	// 10 hosts, MTTF 10 min over 2 h: expect on the order of 100 crashes;
	// anything in double digits proves the cycle is running.
	failures, recoveries := b.Cluster.Outages()
	if failures < 20 {
		t.Errorf("failures = %d, want >= 20", failures)
	}
	if recoveries < 20 || recoveries > failures {
		t.Errorf("recoveries = %d (failures %d)", recoveries, failures)
	}
	// Every crash not yet repaired leaves its host down.
	if down := downHosts(t, b.Cluster); len(down) != failures-recoveries {
		t.Errorf("%d hosts down, want failures - recoveries = %d", len(down), failures-recoveries)
	}
}

func TestChurnIsReplayableFromTheSeed(t *testing.T) {
	run := func(seed int64) []string {
		b := churned(t, 5, seed, 5*time.Minute, 30*time.Second)
		var trace []string
		agentSaw := b.Cluster.OnHostFailure
		b.Cluster.OnHostFailure = func(f grid.HostFailure) {
			trace = append(trace, fmt.Sprintf("F %s %s", f.HostID, b.Engine.Now().Format(time.RFC3339Nano)))
			agentSaw(f)
		}
		b.Engine.RunFor(time.Hour)
		// A host's next crash is drawn when it recovers, so the failure times
		// already carry the recovery times; the count and who is still down
		// close the trace.
		_, recoveries := b.Cluster.Outages()
		return append(trace, fmt.Sprintf("R %d down %v", recoveries, downHosts(t, b.Cluster)))
	}
	a, b := run(7), run(7)
	if len(a) < 2 {
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
	if c := run(8); fmt.Sprint(c) == fmt.Sprint(a) {
		t.Error("seeds 7 and 8 drew the same churn schedule")
	}
}

// TestNoChurnNoOutages: a world without Churn never fails a host by itself.
func TestNoChurnNoOutages(t *testing.T) {
	b := newBox(t)
	b.Engine.RunFor(24 * time.Hour)
	if failures, recoveries := b.Cluster.Outages(); failures != 0 || recoveries != 0 {
		t.Errorf("outages = %d, %d without churn", failures, recoveries)
	}
}
