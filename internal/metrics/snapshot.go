package metrics

import "sort"

// Snapshot is a point-in-time programmatic read of a registry, for code
// that wants values rather than exposition text: the benchmark harness
// reads the counts of a run as a Delta of two, the telemetry collector
// derives its series from one, and tests assert on it.
type Snapshot struct {
	Counters   []CounterSample
	Gauges     []GaugeSample
	Histograms []HistogramSample
}

// CounterSample is one counter child's value.
type CounterSample struct {
	Name   string
	Labels map[string]string
	Value  uint64
}

// GaugeSample is one gauge child's value.
type GaugeSample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// HistogramSample summarizes one histogram child: the cumulative bucket
// counts, the totals, and p50/p95/p99 interpolated from those buckets (NaN
// when empty). Count is the +Inf bucket's count, so a sample always agrees
// with itself even when it was read during concurrent observation.
type HistogramSample struct {
	Name    string
	Labels  map[string]string
	Count   uint64
	Sum     float64
	P50     float64
	P95     float64
	P99     float64
	Buckets []Bucket
}

func newHistogramSample(name string, labels map[string]string, sum float64, buckets []Bucket) HistogramSample {
	return HistogramSample{
		Name: name, Labels: labels,
		Count: buckets[len(buckets)-1].Cumulative, Sum: sum,
		P50: bucketQuantile(buckets, 0.50), P95: bucketQuantile(buckets, 0.95), P99: bucketQuantile(buckets, 0.99),
		Buckets: buckets,
	}
}

// Snapshot reads every metric in the registry. Families and children come
// out sorted (by name, then label values) so output is deterministic.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	for _, f := range r.sortedFamilies() {
		keys, children := f.sortedChildren()
		for i, c := range children {
			labels := labelMap(f.labels, splitLabelKey(keys[i], len(f.labels)))
			switch m := c.(type) {
			case *Counter:
				s.Counters = append(s.Counters, CounterSample{Name: f.name, Labels: labels, Value: m.Value()})
			case *Gauge:
				s.Gauges = append(s.Gauges, GaugeSample{Name: f.name, Labels: labels, Value: m.Value()})
			case *Histogram:
				s.Histograms = append(s.Histograms, newHistogramSample(f.name, labels, m.Sum(), m.Buckets()))
			}
		}
	}
	return s
}

func labelMap(names, values []string) map[string]string {
	if len(names) == 0 {
		return nil
	}
	m := make(map[string]string, len(names))
	for i, n := range names {
		m[n] = values[i]
	}
	return m
}

// Delta returns the change from prev to s: counters and histogram buckets,
// count and sum become differences (a child absent from prev counts from
// zero) and a histogram's quantiles are those of the observations made in
// between; gauges are copied from s as-is, since they are already
// instantaneous. A counter or bucket that went backwards — the process
// restarted between snapshots — resets its delta to the new absolute value,
// so a scraper never reports a negative rate across a daemon restart.
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	prevCounters := make(map[string]uint64, len(prev.Counters))
	for _, c := range prev.Counters {
		prevCounters[SampleName(c.Name, c.Labels)] = c.Value
	}
	prevHists := make(map[string]HistogramSample, len(prev.Histograms))
	for _, h := range prev.Histograms {
		prevHists[SampleName(h.Name, h.Labels)] = h
	}
	out := Snapshot{
		Counters:   make([]CounterSample, len(s.Counters)),
		Gauges:     append([]GaugeSample(nil), s.Gauges...),
		Histograms: make([]HistogramSample, len(s.Histograms)),
	}
	for i, c := range s.Counters {
		d := c
		if was, ok := prevCounters[SampleName(c.Name, c.Labels)]; ok && was <= c.Value {
			d.Value = c.Value - was
		}
		out.Counters[i] = d
	}
	for i, h := range s.Histograms {
		d := h
		if was, ok := prevHists[SampleName(h.Name, h.Labels)]; ok {
			if since := subtractBuckets(h.Buckets, was.Buckets); since != nil {
				d = newHistogramSample(h.Name, h.Labels, h.Sum-was.Sum, since)
			}
		}
		out.Histograms[i] = d
	}
	return out
}

// subtractBuckets returns cur minus prev, bucket by bucket, or nil when prev
// is not an earlier reading of the same histogram (other bounds, or a count
// that went backwards).
func subtractBuckets(cur, prev []Bucket) []Bucket {
	if len(prev) != len(cur) {
		return nil
	}
	out := make([]Bucket, len(cur))
	var below uint64
	for i, b := range cur {
		if prev[i].UpperBound != b.UpperBound || prev[i].Cumulative > b.Cumulative {
			return nil
		}
		d := b.Cumulative - prev[i].Cumulative
		if d < below {
			return nil
		}
		out[i] = Bucket{UpperBound: b.UpperBound, Cumulative: d}
		below = d
	}
	return out
}

// Exemplars returns the current bucket exemplars of every histogram child
// that holds one, keyed by the child's SampleName.
func (r *Registry) Exemplars() map[string][]Exemplar {
	out := make(map[string][]Exemplar)
	for _, f := range r.sortedFamilies() {
		if f.kind != KindHistogram {
			continue
		}
		keys, children := f.sortedChildren()
		for i, c := range children {
			var held []Exemplar
			for _, ex := range c.(*Histogram).Exemplars() {
				if ex != nil {
					held = append(held, *ex)
				}
			}
			if len(held) > 0 {
				out[SampleName(f.name, labelMap(f.labels, splitLabelKey(keys[i], len(f.labels))))] = held
			}
		}
	}
	return out
}

// SampleName renders the canonical identity of one sample — `name{k="v",...}`
// with label keys sorted — the key the telemetry plane uses to address a
// series across snapshots, scrapes and daemons.
func SampleName(name string, labels map[string]string) string {
	if len(labels) == 0 {
		return name
	}
	// Render in sorted-key order for determinism.
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := name + "{"
	for i, k := range keys {
		if i > 0 {
			out += ","
		}
		out += k + `="` + labels[k] + `"`
	}
	return out + "}"
}
