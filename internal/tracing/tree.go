package tracing

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"time"
)

// sortSpans orders spans by start time, breaking ties by span id, so tree
// reconstruction is deterministic.
func sortSpans(spans []*Span) {
	sort.Slice(spans, func(i, j int) bool {
		si, sj := spans[i], spans[j]
		if !si.start.Equal(sj.start) {
			return si.start.Before(sj.start)
		}
		return bytes.Compare(si.id[:], sj.id[:]) < 0
	})
}

// Node is one span plus its children in a reconstructed trace tree.
type Node struct {
	Span     *Span
	Children []*Node
}

// BuildTree reconstructs the parent/child forest of a trace's spans. Spans
// whose parent is missing (evicted from the ring, or remote and never
// collected here) become roots, so a partial trace still renders.
func BuildTree(spans []*Span) []*Node {
	sorted := append([]*Span(nil), spans...)
	sortSpans(sorted)
	nodes := make(map[SpanID]*Node, len(sorted))
	for _, s := range sorted {
		nodes[s.id] = &Node{Span: s}
	}
	var roots []*Node
	for _, s := range sorted {
		n := nodes[s.id]
		if p, ok := nodes[s.parent]; ok && !s.parent.IsZero() && s.parent != s.id {
			p.Children = append(p.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	return roots
}

// RenderTree renders a trace's spans as an indented ASCII tree with
// durations and errors — the marketbench exit report and the
// gridclient `trace` subcommand both print this.
func RenderTree(spans []*Span) string {
	if len(spans) == 0 {
		return "(no spans)\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "trace %s (%d spans)\n", spans[0].traceID.String(), len(spans))
	for _, root := range BuildTree(spans) {
		renderNode(&b, root, 0)
	}
	return b.String()
}

func renderNode(b *strings.Builder, n *Node, depth int) {
	s := n.Span
	b.WriteString(strings.Repeat("  ", depth))
	dur := "live"
	if d := s.Duration(); !s.EndTime().IsZero() {
		dur = d.Round(time.Microsecond).String()
	}
	fmt.Fprintf(b, "- %s [%s] %s", s.Name(), s.id.String(), dur)
	if errMsg := s.Err(); errMsg != "" {
		fmt.Fprintf(b, " ERROR=%q", errMsg)
	}
	b.WriteByte('\n')
	for _, c := range n.Children {
		renderNode(b, c, depth+1)
	}
}

// TraceSummary is one trace's aggregate view, as listed by /debug/traces.
type TraceSummary struct {
	TraceID  TraceID
	Root     string // root span name ("" when the root was evicted)
	Spans    int
	Errors   int
	Start    time.Time
	Duration time.Duration // span of [earliest start, latest end]
}

// Summaries aggregates every trace with at least one completed span in the
// ring, most recently started first.
func (t *Tracer) Summaries() []TraceSummary {
	t.mu.Lock()
	byTrace := make(map[TraceID][]*Span)
	for _, s := range t.ring {
		byTrace[s.traceID] = append(byTrace[s.traceID], s)
	}
	for _, s := range t.active {
		if _, ok := byTrace[s.traceID]; ok {
			byTrace[s.traceID] = append(byTrace[s.traceID], s)
		}
	}
	t.mu.Unlock()

	out := make([]TraceSummary, 0, len(byTrace))
	for id, spans := range byTrace {
		sortSpans(spans)
		sum := TraceSummary{TraceID: id, Spans: len(spans), Start: spans[0].start}
		var latest time.Time
		for _, s := range spans {
			if s.Err() != "" {
				sum.Errors++
			}
			if e := s.EndTime(); e.After(latest) {
				latest = e
			}
			if s.parent.IsZero() && sum.Root == "" {
				sum.Root = s.name
			}
		}
		if sum.Root == "" {
			sum.Root = spans[0].name
		}
		if !latest.IsZero() {
			sum.Duration = latest.Sub(sum.Start)
		}
		out = append(out, sum)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start.After(out[j].Start) })
	return out
}

// Slowest returns the stored trace with the longest duration, or false when
// the ring is empty. marketbench prints its tree at exit.
func (t *Tracer) Slowest() (TraceSummary, bool) {
	var best TraceSummary
	found := false
	for _, s := range t.Summaries() {
		if !found || s.Duration > best.Duration {
			best, found = s, true
		}
	}
	return best, found
}
