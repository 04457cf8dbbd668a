package arc_test

import (
	"bufio"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"tycoongrid/internal/tracing"
)

// goldenEvent is one event line of testdata/timeline.golden.
type goldenEvent struct {
	line  string // time and name, as rendered
	name  string
	attrs []tracing.Attr
}

type goldenJob struct {
	header string
	events []goldenEvent
}

var attrRE = regexp.MustCompile(`(\w+)=("(?:[^"\\]|\\.)*")`)

// readGolden parses renderTimelines' text form.
func readGolden(t *testing.T, text string) []goldenJob {
	t.Helper()
	var jobs []goldenJob
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "  ") {
			jobs = append(jobs, goldenJob{header: line})
			continue
		}
		fields := strings.Fields(line)
		ev := goldenEvent{line: fields[0] + " " + fields[1], name: fields[1]}
		for _, m := range attrRE.FindAllStringSubmatch(line, -1) {
			v, err := strconv.Unquote(m[2])
			if err != nil {
				t.Fatalf("golden line %q: %v", line, err)
			}
			ev.attrs = append(ev.attrs, tracing.String(m[1], v))
		}
		jobs[len(jobs)-1].events = append(jobs[len(jobs)-1].events, ev)
	}
	return jobs
}

func attr(attrs []tracing.Attr, key string) (string, bool) {
	for _, a := range attrs {
		if a.Key == key {
			return a.Value, true
		}
	}
	return "", false
}

// anyValue in an expected attribute matches any value: a placement the
// span-event build recorded no grid.vm-acquire for still has to name its VM.
const anyValue = "\x00any"

// fromSpanEvents turns one job's timeline as the span-event build recorded
// it into what the job's own record must reproduce. These are the only
// differences, each one listed in EXPERIMENTS.md "The timeline is the job's
// record":
//   - auction.bid, auction.clear and grid.vm-acquire are gone;
//   - bid gains the rate of its auction.bid, placed the vm and ready_at of
//     its grid.vm-acquire;
//   - bank.* events stay only for entries on the job's own sub-account.
func fromSpanEvents(j goldenJob) goldenJob {
	rates := map[string][]string{} // host -> auction.bid rates, in order
	vms := map[string][]tracing.Attr{}
	sub := ""
	for _, e := range j.events {
		switch e.name {
		case "auction.bid":
			host, _ := attr(e.attrs, "host")
			rate, _ := attr(e.attrs, "rate")
			rates[host] = append(rates[host], rate)
		case "grid.vm-acquire":
			task, _ := attr(e.attrs, "task")
			vm, _ := attr(e.attrs, "vm")
			ready, _ := attr(e.attrs, "ready_at")
			vms[task] = []tracing.Attr{tracing.String("vm", vm), tracing.String("ready_at", ready)}
		case "funded":
			sub, _ = attr(e.attrs, "sub_account")
		}
	}
	out := goldenJob{header: j.header}
	for _, e := range j.events {
		switch {
		case e.name == "auction.bid", e.name == "auction.clear", e.name == "grid.vm-acquire":
			continue
		case strings.HasPrefix(e.name, "bank."):
			from, _ := attr(e.attrs, "from")
			to, _ := attr(e.attrs, "to")
			if from != sub && to != sub {
				continue
			}
		case e.name == "bid":
			host, _ := attr(e.attrs, "host")
			e.attrs = append(e.attrs[:len(e.attrs):len(e.attrs)], tracing.String("rate", rates[host][0]))
			rates[host] = rates[host][1:]
		case e.name == "placed":
			task, _ := attr(e.attrs, "task")
			vm, ok := vms[task]
			if !ok {
				vm = []tracing.Attr{tracing.String("vm", anyValue), tracing.String("ready_at", anyValue)}
			}
			e.attrs = append(e.attrs[:len(e.attrs):len(e.attrs)], vm...)
		}
		out.events = append(out.events, e)
	}
	return out
}

// TestTimelineMatchesSpanEventGolden replays the scripted run whose timelines
// testdata/timeline.golden holds as the span-event build recorded them at
// sampling 1, and requires the record-derived timelines to equal them event
// for event — time, name, attributes and order — up to the differences
// fromSpanEvents spells out, at sampling 1 and at sampling 0.
func TestTimelineMatchesSpanEventGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/timeline.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := readGolden(t, string(raw))
	for _, ratio := range []float64{1, 0} {
		tr := tracing.New(tracing.WithSeed(1))
		tr.SetSampleRatio(ratio)
		text := renderTimelines(scriptedRun(t, tr))
		got := readGolden(t, text)
		if len(got) != len(want) {
			t.Fatalf("sampling %v: %d jobs, golden has %d", ratio, len(got), len(want))
		}
		for i := range want {
			w, g := fromSpanEvents(want[i]), got[i]
			if w.header != g.header {
				t.Fatalf("sampling %v: job %d is %q, golden %q", ratio, i, g.header, w.header)
			}
			if len(g.events) != len(w.events) {
				t.Fatalf("sampling %v: %s has %d events, want %d:\n%s", ratio, g.header, len(g.events), len(w.events), text)
			}
			for k := range w.events {
				we, ge := w.events[k], g.events[k]
				if !sameEvent(we, ge) {
					t.Errorf("sampling %v: %s event %d is\n  %s %v\nwant\n  %s %v", ratio, g.header, k, ge.line, ge.attrs, we.line, we.attrs)
				}
			}
		}
	}
}

func sameEvent(want, got goldenEvent) bool {
	if want.line != got.line || len(want.attrs) != len(got.attrs) {
		return false
	}
	for i, a := range want.attrs {
		if a.Key != got.attrs[i].Key || (a.Value != anyValue && a.Value != got.attrs[i].Value) {
			return false
		}
	}
	return true
}
