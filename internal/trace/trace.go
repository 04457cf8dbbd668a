// Package trace holds the two names bench/replay.go still calls: NewRecorder
// and Recorder.Record, which it times as trace.record_ns. Nothing else
// records or reads one — a run's price history is a tsdb.Ring — and
// both go with that replay in ROADMAP item 1, as marketplane.ShardedBank
// does.
package trace

import (
	"sync"
	"time"
)

// Recorder keeps every observation per host, pointer-free as a tsdb.Ring
// does. Safe for concurrent use.
type Recorder struct {
	mu    sync.Mutex
	hosts map[string][]point
}

// point is one observation: Unix nanoseconds and a value.
type point struct {
	ns    int64
	value float64
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{hosts: make(map[string][]point)}
}

// Record appends an observation for host, at an instant within the years
// 1678–2262. Out-of-order points are dropped (a restarted market may briefly
// replay).
func (r *Recorder) Record(host string, at time.Time, v float64) {
	ns := at.UnixNano()
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.hosts[host]
	if n := len(s); n > 0 && ns < s[n-1].ns {
		return
	}
	r.hosts[host] = append(s, point{ns: ns, value: v})
}
