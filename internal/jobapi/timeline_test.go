package jobapi

import (
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"tycoongrid/internal/arc"
	"tycoongrid/internal/bank"
	"tycoongrid/internal/box"
	"tycoongrid/internal/token"
	"tycoongrid/internal/tracing"
)

// timelinesOverHTTP runs one seeded box world behind a Service with the
// process tracer sampling at ratio — a finished job, a boosted one, a job
// that loses a host, a cancelled one and one past its deadline — and returns
// every job's timeline as GET /jobs/{id}/timeline serves it.
func timelinesOverHTTP(t *testing.T, ratio float64) []arc.Timeline {
	t.Helper()
	tr := tracing.Default()
	defer tr.SetSampleRatio(tr.SampleRatio())
	tr.SetSampleRatio(ratio)

	cfg := box.DefaultConfig()
	cfg.Hosts, cfg.Users, cfg.GrantPerUser, cfg.Seed = 4, 1, 1000*bank.Credit, 7
	cfg.CreateOverhead = 20 * time.Second
	b, err := box.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(b.Manager, b.Engine)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc)
	defer srv.Close()
	client := NewClient(srv.URL, nil)
	mint := func(credits int64) string {
		t.Helper()
		var tok token.Token
		svc.WithLock(func() { tok, err = b.MintToken(b.Users[0], bank.Amount(credits)*bank.Credit) })
		if err != nil {
			t.Fatal(err)
		}
		enc, err := token.Encode(tok)
		if err != nil {
			t.Fatal(err)
		}
		return enc
	}
	submit := func(count, cpuMinutes, wallMinutes int, credits int64) JobWire {
		t.Helper()
		jw, err := client.Submit(fmt.Sprintf("&(executable=x)(count=%d)(cputime=%d)(walltime=%d)(transfertoken=%s)",
			count, cpuMinutes, wallMinutes, mint(credits)))
		if err != nil {
			t.Fatal(err)
		}
		return jw
	}

	submit(2, 10, 600, 30)
	boosted := submit(2, 20, 600, 30)
	cancelled := submit(1, 60, 600, 20)
	submit(1, 60, 3, 5) // cannot finish before its deadline
	svc.driveFor(2 * time.Minute)
	if err := client.Boost(boosted.ID, mint(15)); err != nil {
		t.Fatal(err)
	}
	svc.WithLock(func() { _, err = b.Cluster.FailHost("h00") })
	if err != nil {
		t.Fatal(err)
	}
	svc.driveFor(time.Minute)
	if err := client.Cancel(cancelled.ID); err != nil {
		t.Fatal(err)
	}
	svc.driveFor(6 * time.Hour)

	jobs, err := client.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	out := make([]arc.Timeline, len(jobs))
	for i, jw := range jobs {
		if out[i], err = client.Timeline(jw.ID); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestTimelineIndependentOfSampling drives the same world over HTTP with the
// tracer sampling nothing and everything: every job's timeline is the same,
// event for event, and none is empty. A timeline assembled from span events
// came back empty at ratio 0.
func TestTimelineIndependentOfSampling(t *testing.T) {
	off, on := timelinesOverHTTP(t, 0), timelinesOverHTTP(t, 1)
	if len(off) != 4 || len(on) != len(off) {
		t.Fatalf("%d jobs at sampling 0, %d at sampling 1, want 4", len(off), len(on))
	}
	for i := range on {
		a, b := off[i], on[i]
		if a.JobID != b.JobID || a.State != b.State || a.Dropped != b.Dropped {
			t.Fatalf("job %d: %s %s dropped %d at sampling 0, %s %s dropped %d at 1",
				i, a.JobID, a.State, a.Dropped, b.JobID, b.State, b.Dropped)
		}
		if len(a.Events) == 0 {
			t.Errorf("%s (%s): empty timeline at sampling 0", a.JobID, a.State)
		}
		if len(a.Events) != len(b.Events) {
			t.Fatalf("%s: %d events at sampling 0, %d at 1", a.JobID, len(a.Events), len(b.Events))
		}
		for k := range a.Events {
			ea, eb := a.Events[k], b.Events[k]
			if !ea.Time.Equal(eb.Time) || ea.Name != eb.Name || fmt.Sprint(ea.Attrs) != fmt.Sprint(eb.Attrs) {
				t.Errorf("%s event %d: %v at sampling 0, %v at 1", a.JobID, k, ea, eb)
			}
		}
	}
	states := map[arc.State]int{}
	names := map[string]bool{}
	for _, tl := range on {
		states[tl.State]++
		for _, e := range tl.Events {
			names[e.Name] = true
		}
	}
	for _, name := range []string{"funded", "bid", "placed", "boosted", "preempted", "failed-over", "cancelled", "completed", "failed"} {
		if !names[name] {
			t.Errorf("no job's timeline has a %s event", name)
		}
	}
	if states[arc.StateFinished] != 2 || states[arc.StateKilled] != 1 || states[arc.StateFailed] != 1 {
		t.Errorf("job states %v, want 2 finished, 1 killed, 1 failed", states)
	}
}
