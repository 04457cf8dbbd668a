package metrics

import (
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// DefBuckets are the default latency buckets in seconds, spanning 500 µs to
// 10 s — the range of an HTTP request against an in-memory market service.
var DefBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// normalizeBounds sorts and deduplicates bucket upper bounds and drops a
// trailing +Inf (the overflow bucket is implicit).
func normalizeBounds(bounds []float64) []float64 {
	out := append([]float64(nil), bounds...)
	sort.Float64s(out)
	dedup := out[:0]
	for i, b := range out {
		if math.IsNaN(b) || math.IsInf(b, 1) {
			continue
		}
		if i > 0 && len(dedup) > 0 && b == dedup[len(dedup)-1] {
			continue
		}
		dedup = append(dedup, b)
	}
	if len(dedup) == 0 {
		panic("metrics: histogram needs at least one finite bucket bound")
	}
	return dedup
}

// histShard is one goroutine-affine slice of a histogram. The count and sum
// words are padded onto their own cache line and the bucket array is a
// separate allocation per shard, so two goroutines observing concurrently
// never contend on a word or bounce a line — the CAS loop on the sum, the
// classic hot spot of a single-word float histogram, runs per shard.
type histShard struct {
	count   atomic.Uint64
	sumBits atomic.Uint64
	_       [48]byte // pad count+sum to one cache line
	counts  []atomic.Uint64
}

// Exemplar is one traced observation attached to a histogram bucket: the
// observed value, the trace that produced it, and when. It is the link from
// "the p99 spiked" to /debug/traces/{id} showing why.
type Exemplar struct {
	Value   float64   `json:"value"`
	TraceID string    `json:"trace_id"`
	At      time.Time `json:"at"`
}

// Histogram is a fixed-bucket distribution: observations land in the first
// bucket whose upper bound is >= the value, with an implicit +Inf overflow
// bucket. Observation is sharded exactly like Counter — the observing
// goroutine picks a shard from its stack address and pays two uncontended
// atomic adds plus a CAS on that shard's sum — and reads merge all shards at
// scrape time. Quantiles are estimated at read time by linear interpolation
// within the bucket that contains the target rank.
//
// Each bucket additionally holds the most recent exemplar recorded against
// it (one atomic pointer store on the ObserveExemplar path, nothing on the
// plain Observe path); Registry.Exemplars reads them out for the telemetry
// plane's JSON surface.
type Histogram struct {
	bounds    []float64 // sorted upper bounds, +Inf excluded
	shards    []histShard
	exemplars []atomic.Pointer[Exemplar] // per bucket, last writer wins
}

func newHistogram(bounds []float64) *Histogram {
	h := &Histogram{
		bounds:    bounds,
		shards:    make([]histShard, counterShards),
		exemplars: make([]atomic.Pointer[Exemplar], len(bounds)+1),
	}
	for i := range h.shards {
		h.shards[i].counts = make([]atomic.Uint64, len(bounds)+1)
	}
	return h
}

// bucketIndex locates the bucket for v. Linear scan: bucket lists are short
// (≤ ~15) and the scan is branch-predictable, beating binary search at this
// size.
func (h *Histogram) bucketIndex(v float64) int {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	return i
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	s := &h.shards[shardIndex()]
	s.counts[h.bucketIndex(v)].Add(1)
	s.count.Add(1)
	addFloatBits(&s.sumBits, v)
}

// ObserveExemplar records one value and, when traceID is non-empty, attaches
// it as the bucket's exemplar. Hot paths call this with the active trace id
// (empty when unsampled). Re-observations from the trace already holding the
// bucket's exemplar are deduplicated — the exemplar's job is to link the
// bucket to a distinct trace, so the steady-state cost inside one traced
// request is a single pointer load, with the store (and its timestamp +
// allocation) paid only when a new trace claims the bucket.
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	i := h.bucketIndex(v)
	s := &h.shards[shardIndex()]
	s.counts[i].Add(1)
	s.count.Add(1)
	addFloatBits(&s.sumBits, v)
	if traceID != "" {
		if cur := h.exemplars[i].Load(); cur == nil || cur.TraceID != traceID {
			h.exemplars[i].Store(&Exemplar{Value: v, TraceID: traceID, At: time.Now()})
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	var sum uint64
	for i := range h.shards {
		sum += h.shards[i].count.Load()
	}
	return sum
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	var sum float64
	for i := range h.shards {
		sum += math.Float64frombits(h.shards[i].sumBits.Load())
	}
	return sum
}

// Bucket is one (upper bound, cumulative count) pair of a histogram
// snapshot; the final bucket's bound is +Inf.
type Bucket struct {
	UpperBound float64 `json:"le"`
	Cumulative uint64  `json:"count"`
}

// Buckets returns the cumulative bucket counts, ending with the +Inf
// bucket. The counts are read shard-by-shard without a global lock, so a
// snapshot taken during concurrent observation may be off by in-flight
// observations — fine for monitoring, by design.
func (h *Histogram) Buckets() []Bucket {
	n := len(h.bounds) + 1
	out := make([]Bucket, n)
	var cum uint64
	for i := 0; i < n; i++ {
		for s := range h.shards {
			cum += h.shards[s].counts[i].Load()
		}
		bound := math.Inf(1)
		if i < len(h.bounds) {
			bound = h.bounds[i]
		}
		out[i] = Bucket{UpperBound: bound, Cumulative: cum}
	}
	return out
}

// Exemplars returns every bucket's latest exemplar, nil entries included,
// indices aligned with Buckets.
func (h *Histogram) Exemplars() []*Exemplar {
	out := make([]*Exemplar, len(h.exemplars))
	for i := range h.exemplars {
		out[i] = h.exemplars[i].Load()
	}
	return out
}

// Quantile estimates the q-quantile (q in [0,1]) of everything observed so
// far; see bucketQuantile. Returns NaN when the histogram is empty.
func (h *Histogram) Quantile(q float64) float64 {
	return bucketQuantile(h.Buckets(), q)
}

// bucketQuantile estimates the q-quantile (q clamped to [0,1]) of a
// cumulative bucket list ending in the +Inf bucket, by locating the bucket
// containing the target rank and interpolating linearly inside it. Values in
// the overflow bucket clamp to the highest finite bound. Returns NaN when
// the buckets hold no observation. It is the only quantile estimator: a live
// histogram and the difference of two snapshots of it both come here.
func bucketQuantile(buckets []Bucket, q float64) float64 {
	if len(buckets) < 2 {
		return math.NaN()
	}
	highest := buckets[len(buckets)-2].UpperBound
	total := buckets[len(buckets)-1].Cumulative
	if total == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	for i, b := range buckets {
		if float64(b.Cumulative) < rank {
			continue
		}
		if i == len(buckets)-1 {
			// Overflow bucket: no finite upper bound to interpolate toward.
			return highest
		}
		lower, prev := 0.0, uint64(0)
		if i > 0 {
			lower = buckets[i-1].UpperBound
			prev = buckets[i-1].Cumulative
		}
		inBucket := b.Cumulative - prev
		if inBucket == 0 {
			return b.UpperBound
		}
		frac := (rank - float64(prev)) / float64(inBucket)
		return lower + (b.UpperBound-lower)*frac
	}
	return highest
}
