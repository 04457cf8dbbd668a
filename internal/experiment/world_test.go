package experiment

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"tycoongrid/internal/metrics"
	"tycoongrid/internal/pricefeed"
	"tycoongrid/internal/strategy"
	"tycoongrid/internal/tsdb"
)

// TestWideGridRingAllocationBound gates what a 10 000-host world holds while
// most of its hosts sit idle, as on a wide grid. Built and ticked once:
//
//   - No reader, no ring: a world without a meta-scheduler reads no agent
//     price history, so its first tick records no price sample.
//   - World size: the live heap from before NewWorld to after the tick holds
//     at most maxHostBytes and maxHostObjects a host. What is left is the
//     host — one stretch of the cluster's one []Host, its market and VM
//     manager inside it — its id string and its place in the cluster's id
//     list, the plane and the agent's partition, ≈ 305 B and 0.99 objects. It
//     read ≈ 638 B and 4.00 while the host, its market and its VM manager
//     were three allocations and the cluster kept a map and a list of them,
//     662 B while the agent kept its host set twice (the ids beside their
//     canonical copy, the hosts beside theirs), and 1 023 B and 6.00 while an
//     idle market carried its empty book's five slices (a 320-byte size
//     class, 192 without them), a VM manager made its two maps before its
//     first boot, and the plane kept an index by host id and the first
//     sweep's row per host.
//   - One tick's growth: at most maxGrowth, ≈ 0.09 MB. A sweep returns a
//     result only for a clear that charged or refunded; the first tick grew
//     the heap by ≈ 0.98 MB while it kept a row for every swept host, by
//     ≈ 2.2 MB when the agent hung a ring on every host and by ≈ 115 MB when
//     each ring reserved its 720 slots.
//   - Snapshot: the world adds at most maxSamples children to the default
//     registry, so what a snapshot (a daemon's scrape) costs does not grow
//     with the hosts.
func TestWideGridRingAllocationBound(t *testing.T) {
	const (
		hosts          = 10_000
		maxHostBytes   = 360
		maxHostObjects = 2.0
		maxGrowth      = 256 << 10
		maxSamples     = 16
	)
	samples := snapshotSamples()
	w := measureWideWorld(t, hosts)
	if n := snapshotSamples(); n-samples > maxSamples {
		t.Errorf("a world of %d hosts took a metrics snapshot from %d samples to %d, want at most %d more", hosts, samples, n, maxSamples)
	} else {
		t.Logf("a world of %d hosts took a metrics snapshot from %d samples to %d", hosts, samples, n)
	}
	if w.hostBytes > maxHostBytes || w.hostObjects > maxHostObjects {
		t.Errorf("a world of %d hosts, ticked once, holds %.0f B and %.2f heap objects a host, want <= %d B and <= %.1f",
			hosts, w.hostBytes, w.hostObjects, maxHostBytes, maxHostObjects)
	} else {
		t.Logf("a world of %d hosts, ticked once, holds %.0f B and %.2f heap objects a host", hosts, w.hostBytes, w.hostObjects)
	}
	if w.tickGrowth > maxGrowth {
		t.Errorf("one tick of %d hosts grew the heap by %.2f MB, want <= %.2f MB", hosts, float64(w.tickGrowth)/(1<<20), float64(maxGrowth)/(1<<20))
	} else {
		t.Logf("one tick of %d hosts grew the heap by %.2f MB", hosts, float64(w.tickGrowth)/(1<<20))
	}
}

// TestHundredThousandHostAllocationBound: what a wide world holds is a cost
// per host, with nothing that grows faster — no map whose buckets double, no
// lookup structure beside the hosts. A 100 000-host world, built and ticked
// once, holds within 5 % of what a 10 000-host one holds a host.
func TestHundredThousandHostAllocationBound(t *testing.T) {
	const slack = 0.05
	small, large := measureWideWorld(t, 10_000), measureWideWorld(t, 100_000)
	if d := large.hostBytes/small.hostBytes - 1; d > slack || d < -slack {
		t.Errorf("a 100 000-host world holds %.1f B a host, a 10 000-host one %.1f: %+.1f %%, want within %.0f %%",
			large.hostBytes, small.hostBytes, 100*d, 100*slack)
	} else {
		t.Logf("a 100 000-host world holds %.1f B and %.2f objects a host, a 10 000-host one %.1f B and %.2f",
			large.hostBytes, large.hostObjects, small.hostBytes, small.hostObjects)
	}
}

// wideWorld is what a world of paper hosts holds, built and ticked once.
type wideWorld struct {
	hostBytes, hostObjects float64 // live heap a host, from before NewWorld to after the tick
	tickGrowth             int64   // live heap the tick (and the Sync after it) added
}

// measureWideWorld builds a paper world of the given hosts, without a
// meta-scheduler, ticks it once and syncs it, and reads what it holds. The
// tick must record no price sample: nobody reads one.
func measureWideWorld(t *testing.T, hosts int) wideWorld {
	t.Helper()
	var start, before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&start)
	cfg := PaperWorld()
	cfg.Hosts = hosts
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if w.Meta != nil {
		t.Fatal("a single-partition world built a meta-scheduler")
	}
	recorded := samplesRecorded()
	runtime.GC()
	runtime.ReadMemStats(&before)
	w.Engine.RunFor(w.Cluster.Interval())
	w.Cluster.Sync()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(w)
	if n := samplesRecorded() - recorded; n != 0 {
		t.Errorf("one tick of %d hosts nobody reads recorded %d price samples, want 0", hosts, n)
	}
	return wideWorld{
		hostBytes:   float64(int64(after.HeapAlloc)-int64(start.HeapAlloc)) / float64(hosts),
		hostObjects: float64(int64(after.HeapObjects)-int64(start.HeapObjects)) / float64(hosts),
		tickGrowth:  int64(after.HeapAlloc) - int64(before.HeapAlloc),
	}
}

// samplesRecorded reads pricefeed_samples_recorded_total out of a snapshot of
// the default registry.
func samplesRecorded() uint64 {
	for _, c := range metrics.Default().Snapshot().Counters {
		if c.Name == "pricefeed_samples_recorded_total" {
			return c.Value
		}
	}
	return 0
}

// snapshotSamples counts the children in a snapshot of the default registry.
func snapshotSamples() int {
	s := metrics.Default().Snapshot()
	return len(s.Counters) + len(s.Gauges) + len(s.Histograms)
}

// A run's price trace holds every tick of the run or fails the run: a sample
// the market's ring has no room for, or one it refuses, is counted by the
// ring and fails checkRun, never dropped silently.
func TestRunPricesFailsALostSample(t *testing.T) {
	const run = 30 * time.Minute
	world := func(t *testing.T) *World {
		t.Helper()
		cfg := PaperWorld()
		cfg.Hosts = 3
		w, err := NewWorld(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.holdRun(run); err != nil {
			t.Fatal(err)
		}
		return w
	}

	t.Run("whole run", func(t *testing.T) {
		w := world(t)
		w.Engine.RunFor(run)
		w.Cluster.Sync()
		if err := w.checkRun(); err != nil {
			t.Fatal(err)
		}
		want := int(run / w.Cluster.Interval())
		for _, id := range w.Cluster.HostIDs() {
			if got := w.history(id, 0).Len(); got != want {
				t.Errorf("%s holds %d samples, want %d", id, got, want)
			}
		}
	})

	t.Run("longer than the run", func(t *testing.T) {
		w := world(t)
		w.Engine.RunFor(run + 2*w.Cluster.Interval())
		w.Cluster.Sync()
		err := w.checkRun()
		if err == nil || !strings.Contains(err.Error(), "refused 6 samples") {
			t.Fatalf("checkRun = %v, want 2 samples lost on each of 3 hosts", err)
		}
	})

	t.Run("out of order", func(t *testing.T) {
		w := world(t)
		w.Engine.RunFor(run / 2)
		w.Cluster.Sync()
		h, err := w.Cluster.Host(w.Cluster.HostIDs()[0])
		if err != nil {
			t.Fatal(err)
		}
		h.Market.Tick(w.Engine.Now().Add(-w.Cluster.Interval()))
		err = w.checkRun()
		if err == nil || !strings.Contains(err.Error(), "refused 1 samples") {
			t.Fatalf("checkRun = %v, want the one older sample refused", err)
		}
	})

	// A ring holds any finite value; a price may not be negative, and the
	// observer a market records its ring through refuses one, counting it
	// where checkRun looks.
	t.Run("negative price", func(t *testing.T) {
		w := world(t)
		w.Engine.RunFor(run / 2)
		w.Cluster.Sync()
		ring := w.history(w.Cluster.HostIDs()[0], 0)
		pricefeed.Observer(ring)(-1, w.Engine.Now().Add(time.Second))
		err := w.checkRun()
		if err == nil || !strings.Contains(err.Error(), "refused 1 samples") {
			t.Fatalf("checkRun = %v, want the negative price refused", err)
		}
	})
}

// TestOneRingPerMarket: every world that reads prices keeps one price
// history per market. Whoever asks — the meta-scheduled agents of box.New,
// the strategies world's volatility windows on top of them, RunLoad's trace —
// gets the market's ring, sized to the largest window asked for; a reader
// asking for more raises it and gets the same ring back. Each market's ring takes one
// sample a clear, and the process-wide count of ring samples is exactly
// those, so no second ring hangs anywhere.
func TestOneRingPerMarket(t *testing.T) {
	// rings returns every market's ring, failing on a market without one.
	rings := func(t *testing.T, w *World) []*tsdb.Ring {
		t.Helper()
		var out []*tsdb.Ring
		for _, id := range w.Cluster.HostIDs() {
			r := w.history(id, 0)
			if r == nil {
				t.Fatalf("%s: a read market keeps no history", id)
			}
			out = append(out, r)
		}
		return out
	}
	// oneTick runs one clear and checks it reached each ring exactly once
	// and no other ring at all.
	oneTick := func(t *testing.T, w *World) {
		t.Helper()
		rs := rings(t, w)
		before := make([]int, len(rs))
		for i, r := range rs {
			before[i] = r.Len()
		}
		recorded := samplesRecorded()
		w.Engine.RunFor(w.Cluster.Interval())
		w.Cluster.Sync()
		for i, r := range rs {
			if got := r.Len() - before[i]; got != 1 {
				t.Errorf("ring %d took %d samples in one clear, want 1", i, got)
			}
		}
		if n := samplesRecorded() - recorded; n != uint64(len(rs)) {
			t.Errorf("one clear of %d markets recorded %d ring samples, want %d: a second ring hangs somewhere", len(rs), n, len(rs))
		}
	}
	// raise asks for a larger history and checks it comes back the same.
	raise := func(t *testing.T, w *World) {
		t.Helper()
		for _, id := range w.Cluster.HostIDs() {
			h, err := w.Cluster.Host(id)
			if err != nil {
				t.Fatal(err)
			}
			r := h.Market.History(0)
			want := r.Capacity() + 1
			if again := h.Market.History(want); again != r {
				t.Fatalf("%s: a second reader got another ring", id)
			}
			if got := r.Capacity(); got != want {
				t.Errorf("%s: capacity %d after asking for %d", id, got, want)
			}
			if again := h.Market.History(1); again != r || r.Capacity() != want {
				t.Errorf("%s: a smaller window lowered the capacity to %d", id, r.Capacity())
			}
		}
	}

	t.Run("box with a meta-scheduler", func(t *testing.T) {
		cfg := PaperWorld()
		cfg.Hosts, cfg.Partitions, cfg.Strategy = 4, 2, strategy.PredictedMean
		w, err := NewWorld(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rings(t, w) {
			if r.Capacity() != pricefeed.DefaultCapacity {
				t.Errorf("ring capacity %d, want the agents' window %d", r.Capacity(), pricefeed.DefaultCapacity)
			}
		}
		oneTick(t, w)
		raise(t, w)
		oneTick(t, w)
	})

	t.Run("strategies", func(t *testing.T) {
		p := shortStrategiesParams()
		sw, err := buildStrategiesWorld(p, strategy.PredictedMean)
		if err != nil {
			t.Fatal(err)
		}
		// Two deadlines and a cadence, the longest a measured job's window
		// waits to be read, or the agents' window if that is longer.
		want := max(p.Window, int((2*p.MeasureDeadline+p.MeasureEvery)/sw.Cluster.Interval())+1)
		for _, r := range rings(t, sw.World) {
			if r.Capacity() != want {
				t.Errorf("ring capacity %d, want %d ticks", r.Capacity(), want)
			}
		}
		oneTick(t, sw.World)
		raise(t, sw.World)
		oneTick(t, sw.World)
	})

	t.Run("RunLoad", func(t *testing.T) {
		p := DefaultLoadParams()
		p.World.Hosts, p.Hours = 4, 4
		recorded := samplesRecorded()
		res, err := RunLoad(p)
		if err != nil {
			t.Fatal(err)
		}
		run := int(4 * time.Hour / res.World.Cluster.Interval())
		for _, r := range rings(t, res.World) {
			if r.Capacity() != run || r.Len() != run {
				t.Errorf("ring holds %d of %d samples, want the run's %d", r.Len(), r.Capacity(), run)
			}
		}
		if n := samplesRecorded() - recorded; n != uint64(4*run) {
			t.Errorf("the run recorded %d ring samples, want %d: a second ring hangs somewhere", n, 4*run)
		}
		raise(t, res.World)
	})
}
