package agent

import (
	"sort"
	"testing"
	"time"
)

// runningIDs lists the pump's job list.
func runningIDs(a *Agent) []string {
	ids := make([]string, len(a.running))
	for i, j := range a.running {
		ids[i] = j.ID
	}
	return ids
}

// TestRunningListTracksLiveJobs holds the pump's list to the definition the
// old per-tick scan implemented: exactly the StateRunning jobs of a.jobs, in
// ascending ID order — through submissions whose IDs do not sort in
// submission order ("job-10000" < "job-9999"), completions, a cancellation
// and a deadline failure — while every finished job stays queryable.
func TestRunningListTracksLiveJobs(t *testing.T) {
	w := newWorld(t, 4)
	w.agent.seq = 9997 // next IDs: job-9998, job-9999, job-10000, job-10001

	check := func(when string) {
		t.Helper()
		var want []string
		for id, j := range w.agent.jobs {
			if j.State == StateRunning {
				want = append(want, id)
			}
		}
		sort.Strings(want)
		got := runningIDs(w.agent)
		if len(got) != len(want) {
			t.Fatalf("%s: running list %v, want %v", when, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: running list %v, want %v", when, got, want)
			}
		}
	}

	short, err := w.agent.Submit(w.payToken(t, 50), request(2, 2*time.Hour), chunks(2, 5))
	if err != nil {
		t.Fatal(err)
	}
	long, err := w.agent.Submit(w.payToken(t, 50), request(2, 6*time.Hour), chunks(2, 200))
	if err != nil {
		t.Fatal(err)
	}
	// Far too much work for its deadline: the pump must fail it.
	doomed, err := w.agent.Submit(w.payToken(t, 1), request(1, 20*time.Minute), chunks(1, 5000))
	if err != nil {
		t.Fatal(err)
	}
	cancelled, err := w.agent.Submit(w.payToken(t, 50), request(2, 6*time.Hour), chunks(2, 200))
	if err != nil {
		t.Fatal(err)
	}
	check("after four submissions")
	if got := runningIDs(w.agent); got[0] != "job-10000" || got[3] != "job-9999" {
		t.Fatalf("running list not in string order: %v", got)
	}

	if err := w.agent.Cancel(cancelled.ID); err != nil {
		t.Fatal(err)
	}
	check("after cancel")

	w.eng.RunFor(30 * time.Minute)
	check("after 30 minutes")
	if short.State != StateDone || doomed.State != StateFailed || long.State != StateRunning {
		t.Fatalf("states: short %v, doomed %v (%s), long %v", short.State, doomed.State, doomed.FailReason, long.State)
	}
	if got := runningIDs(w.agent); len(got) != 1 || got[0] != long.ID {
		t.Fatalf("running list %v, want just %s", got, long.ID)
	}

	w.eng.RunFor(6 * time.Hour)
	check("at the end")
	if len(w.agent.running) != 0 {
		t.Fatalf("jobs left on the running list: %v", runningIDs(w.agent))
	}
	for _, j := range []*Job{short, long, doomed, cancelled} {
		if got, err := w.agent.Job(j.ID); err != nil || got != j {
			t.Errorf("finished job %s no longer queryable: %v", j.ID, err)
		}
	}
	if len(w.agent.Jobs()) != 4 {
		t.Errorf("Jobs() = %d, want 4", len(w.agent.Jobs()))
	}
}
