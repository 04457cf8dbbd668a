package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around its
// own calls: name, start and end in nanoseconds since the recorder's origin,
// the index of the span that caused it (-1 for a root) and the request
// (job, tick, transfer) it belongs to.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Req    int64  `json:"req"`
}

// recorder keeps spans in memory and writes them out once, at the end of a
// traced run. A nil recorder records nothing, so untraced runs pay one nil
// check per call site. It is not safe for concurrent use: concurrent
// drivers keep one recorder per goroutine and merge them.
type recorder struct {
	origin time.Time
	spans  []span
}

func newRecorder(trace bool, origin time.Time) *recorder {
	if !trace {
		return nil
	}
	return &recorder{origin: origin, spans: make([]span, 0, 1<<16)}
}

// add records a finished span and returns its index for use as a parent.
func (r *recorder) add(name string, start, end time.Time, parent int32, req int64) int32 {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{
		Name: name, Start: start.Sub(r.origin).Nanoseconds(), End: end.Sub(r.origin).Nanoseconds(),
		Parent: parent, Req: req,
	})
	return int32(len(r.spans) - 1)
}

// merge appends other's spans, re-basing their parent links.
func (r *recorder) merge(other *recorder) {
	if r == nil || other == nil {
		return
	}
	base := int32(len(r.spans))
	for _, s := range other.spans {
		if s.Parent >= 0 {
			s.Parent += base
		}
		r.spans = append(r.spans, s)
	}
}

// overheadPct estimates what recording cost the timed section: the spans it
// recorded times the measured cost of recording one, as a share of wall.
func (r *recorder) overheadPct(wall time.Duration) float64 {
	if r == nil || wall <= 0 {
		return 0
	}
	const probes = 200_000
	probe := newRecorder(true, r.origin)
	t0 := time.Now() // call sites read the clock traced or not; only add is extra
	for i := 0; i < probes; i++ {
		probe.add("probe", t0, t0, -1, int64(i))
	}
	perSpan := float64(time.Since(t0).Nanoseconds()) / probes
	return 100 * perSpan * float64(len(r.spans)) / float64(wall.Nanoseconds())
}

// write stores the spans as bench/out/trace-<workload>.json under dir.
func (r *recorder) write(dir, workload string) (string, error) {
	if r == nil {
		return "", nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := json.NewEncoder(f).Encode(r.spans); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
