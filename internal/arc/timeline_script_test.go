package arc_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"tycoongrid/internal/arc"
	"tycoongrid/internal/bank"
	"tycoongrid/internal/box"
	"tycoongrid/internal/strategy"
	"tycoongrid/internal/token"
	"tycoongrid/internal/tracing"
)

// scriptedRun drives one seeded, partitioned box world through every kind of
// timeline event: a matchmade and prediction-scored pick per job, funding and
// bids, placements with stage-in/out, a boost, a host failure (preempted,
// failed-over), a cancelled (killed) job, a deadline failure, a hold-back
// refund and a replayed token. tr's sampling ratio is the caller's; nothing
// the run does depends on it. It returns every job's timeline, ascending by
// job id.
func scriptedRun(t *testing.T, tr *tracing.Tracer) []arc.Timeline {
	t.Helper()
	cfg := box.DefaultConfig()
	cfg.Hosts, cfg.CPUsPerHost = 4, 1
	cfg.Users, cfg.GrantPerUser = 2, 1000*bank.Credit
	cfg.Seed = 26
	cfg.Partitions, cfg.Strategy, cfg.Horizon = 2, strategy.PredictedMean, 10*time.Minute
	cfg.StageInTime, cfg.StageOutTime = 30*time.Second, 20*time.Second
	cfg.CreateOverhead = 20 * time.Second
	cfg.Tracer = tr
	b, err := box.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sched := b.Scheduler()
	eng := b.Engine
	eng.RunFor(30 * time.Minute) // price history for the forecasts

	mint := func(u *box.User, credits int64) string {
		t.Helper()
		tok, err := b.MintToken(u, bank.Amount(credits)*bank.Credit)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := token.Encode(tok)
		if err != nil {
			t.Fatal(err)
		}
		return enc
	}
	submit := func(xrslText string, chunks []float64) *arc.GridJob {
		t.Helper()
		gj, err := sched.SubmitContext(t.Context(), xrslText, chunks)
		if err != nil {
			t.Fatal(err)
		}
		return gj
	}
	chunk := func(minutes float64) float64 { return minutes * 60 * cfg.CPUMHz }
	u1, u2 := b.Users[0], b.Users[1]

	tokA := mint(u1, 40)
	a := submit(fmt.Sprintf("&(executable=a.sh)(count=2)(walltime=600)"+
		"(inputfiles=(in.dat gsiftp://data/in.dat))(outputfiles=(out.dat gsiftp://data/out.dat))"+
		"(transfertoken=%s)", tokA), []float64{chunk(8), chunk(8), chunk(6), chunk(6)})
	eng.RunFor(time.Minute)
	bj := submit(fmt.Sprintf("&(executable=b.sh)(count=2)(walltime=600)(transfertoken=%s)", mint(u2, 40)),
		[]float64{chunk(10), chunk(10)})
	eng.RunFor(time.Minute)
	c := submit(fmt.Sprintf("&(executable=c.sh)(count=1)(walltime=600)(transfertoken=%s)", mint(u1, 20)),
		[]float64{chunk(30)})
	d := submit(fmt.Sprintf("&(executable=d.sh)(count=1)(walltime=5)(transfertoken=%s)", mint(u2, 5)),
		[]float64{chunk(60)})
	submit(fmt.Sprintf("&(executable=e.sh)(count=2)(minhosts=3)(walltime=60)(transfertoken=%s)", mint(u1, 10)),
		[]float64{chunk(1), chunk(1)})
	submit(fmt.Sprintf("&(executable=f.sh)(count=1)(walltime=60)(transfertoken=%s)", tokA), []float64{chunk(1)})
	eng.RunFor(2 * time.Minute)

	if err := sched.Boost(a.ID, mint(u1, 15)); err != nil {
		t.Fatalf("boost %s: %v", a.ID, err)
	}
	eng.RunFor(time.Minute)
	if bj.AgentJob == nil || len(bj.AgentJob.Hosts) == 0 {
		t.Fatalf("job %s is not running: %s %s", bj.ID, bj.State, bj.Error)
	}
	failed := bj.AgentJob.Hosts[0]
	if _, err := b.Cluster.FailHost(failed); err != nil {
		t.Fatal(err)
	}
	eng.RunFor(time.Minute)
	if err := sched.Cancel(c.ID); err != nil {
		t.Fatalf("cancel %s: %v", c.ID, err)
	}
	eng.RunFor(10 * time.Minute)
	if err := b.Cluster.RecoverHost(failed); err != nil {
		t.Fatal(err)
	}
	eng.RunFor(12 * time.Hour)

	for _, gj := range []*arc.GridJob{a, bj} {
		if gj.State != arc.StateFinished {
			t.Fatalf("job %s ended %s (%s), want FINISHED", gj.ID, gj.State, gj.Error)
		}
	}
	if c.State != arc.StateKilled || d.State != arc.StateFailed {
		t.Fatalf("jobs %s, %s ended %s, %s; want KILLED, FAILED", c.ID, d.ID, c.State, d.State)
	}
	jobs := sched.Jobs()
	out := make([]arc.Timeline, len(jobs))
	for i, gj := range jobs {
		if out[i], err = sched.Timeline(gj.ID); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// renderTimelines is the golden file's text form: one header line a job, one
// line an event, attribute values quoted. Trace and span ids are left out —
// they are random per tracer — and so is the job's place in a trace.
func renderTimelines(tls []arc.Timeline) string {
	var s strings.Builder
	for _, tl := range tls {
		fmt.Fprintf(&s, "job %s state=%s error=%q dropped=%d\n", tl.JobID, tl.State, tl.Error, tl.Dropped)
		for _, e := range tl.Events {
			fmt.Fprintf(&s, "  %s %s", e.Time.UTC().Format(time.RFC3339Nano), e.Name)
			for _, a := range e.Attrs {
				fmt.Fprintf(&s, " %s=%q", a.Key, a.Value)
			}
			s.WriteByte('\n')
		}
	}
	return s.String()
}
