package tsdb

import (
	"time"

	"tycoongrid/internal/metrics"
)

// Series-name suffixes the Collector derives from one metrics snapshot.
// Gauges keep their bare sample name; cumulative metrics become rates so
// the stored series are directly plottable.
const (
	SuffixRate = ":rate" // counters & histogram counts: events per second
	SuffixP99  = ":p99"  // histograms: interpolated 99th percentile of the interval's observations
	SuffixMean = ":mean" // histograms: delta sum / delta count per interval
)

// Collector turns a metrics.Registry into tsdb series by self-scraping
// Snapshot on each Collect call:
//
//   - every counter child appends "<sample>:rate" — its per-second rate over
//     the interval since the previous Collect,
//   - every gauge child appends "<sample>" — its instantaneous value,
//   - every histogram child appends "<sample>:p99" and "<sample>:mean" —
//     both over the observations made since the previous Collect, none when
//     there were none — and "<sample>:rate" (observations per second).
//
// The clock is injected: daemons run Collect on a wall ticker, tests and the
// simulation harness drive it with engine time, making the stored history
// deterministic under a deterministic workload. Collect is not safe for
// concurrent use with itself; one goroutine (or the engine loop) owns it.
type Collector struct {
	reg *metrics.Registry
	db  *DB
	now func() time.Time

	prev   metrics.Snapshot
	prevAt time.Time
	seeded bool
}

// NewCollector builds a collector feeding db from reg (nil means the default
// registry) stamped by now (nil means time.Now).
func NewCollector(reg *metrics.Registry, db *DB, now func() time.Time) *Collector {
	if reg == nil {
		reg = metrics.Default()
	}
	if now == nil {
		now = time.Now
	}
	return &Collector{reg: reg, db: db, now: now}
}

// Collect performs one self-scrape and returns how many series points were
// appended. The first call only seeds the delta baseline for rates and means
// (gauges still record, and a histogram's quantile is then the one of
// everything it has seen), so rates never report a cold process's lifetime
// totals as one giant spike.
func (c *Collector) Collect() int {
	at := c.now()
	snap := c.reg.Snapshot()
	appended := 0
	tn := at.UnixNano()

	for _, g := range snap.Gauges {
		if c.db.Series(metrics.SampleName(g.Name, g.Labels)).AppendNanos(tn, g.Value) {
			appended++
		}
	}
	delta := snap.Delta(c.prev)
	for _, h := range delta.Histograms {
		if h.Count > 0 {
			if c.db.Series(metrics.SampleName(h.Name, h.Labels)+SuffixP99).AppendNanos(tn, h.P99) {
				appended++
			}
		}
	}

	if c.seeded {
		dt := at.Sub(c.prevAt).Seconds()
		if dt > 0 {
			for _, ctr := range delta.Counters {
				name := metrics.SampleName(ctr.Name, ctr.Labels)
				if c.db.Series(name+SuffixRate).AppendNanos(tn, float64(ctr.Value)/dt) {
					appended++
				}
			}
			for _, h := range delta.Histograms {
				name := metrics.SampleName(h.Name, h.Labels)
				if c.db.Series(name+SuffixRate).AppendNanos(tn, float64(h.Count)/dt) {
					appended++
				}
				if h.Count > 0 {
					if c.db.Series(name+SuffixMean).AppendNanos(tn, h.Sum/float64(h.Count)) {
						appended++
					}
				}
			}
		}
	}
	c.prev = snap
	c.prevAt = at
	c.seeded = true
	return appended
}
