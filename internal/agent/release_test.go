package agent

import (
	"errors"
	"testing"
	"time"

	"tycoongrid/internal/auction"
	"tycoongrid/internal/bank"
	"tycoongrid/internal/grid"
)

// TestReleaseDropsSchedulingState: each path that releases a job's escrow —
// it finishes, it fails at its deadline, it is cancelled, the hold-back
// policy unwinds it — leaves its chunk queue, busy map and OnEnd nil, OnEnd
// having fired once when the job finished or failed and never when it was
// cancelled, and a host
// failure that reaches the job after its release, naming a bid and a task
// of its sub-account or taking down a host it ran on, panics nowhere and
// changes nothing the job's record keeps.
func TestReleaseDropsSchedulingState(t *testing.T) {
	for _, tc := range []struct {
		name    string
		hosts   int
		release func(t *testing.T, w *world) *Job
	}{
		{"finish", 2, func(t *testing.T, w *world) *Job {
			job, err := w.agent.Submit(w.payToken(t, 100), request(2, 8*time.Hour), chunks(4, 30))
			if err != nil {
				t.Fatal(err)
			}
			completed := 0
			job.OnEnd = func(j *Job) {
				if j.State == StateDone {
					completed++
				}
			}
			w.eng.RunFor(8 * time.Hour)
			if completed != 1 {
				t.Fatalf("OnEnd fired %d times on a done job, want once", completed)
			}
			return job
		}},
		{"deadline", 1, func(t *testing.T, w *world) *Job {
			job, err := w.agent.Submit(w.payToken(t, 30), request(1, 30*time.Minute), chunks(8, 60))
			if err != nil {
				t.Fatal(err)
			}
			failed := 0
			job.OnEnd = func(j *Job) {
				if j.State == StateFailed {
					failed++
				}
			}
			w.eng.RunFor(2 * time.Hour)
			if failed != 1 {
				t.Fatalf("OnEnd fired %d times on a failed job, want once", failed)
			}
			return job
		}},
		{"cancel", 2, func(t *testing.T, w *world) *Job {
			job, err := w.agent.Submit(w.payToken(t, 60), request(2, 6*time.Hour), chunks(4, 30))
			if err != nil {
				t.Fatal(err)
			}
			job.OnEnd = func(*Job) { t.Error("Cancel fired OnEnd") }
			w.eng.RunFor(10 * time.Minute)
			if err := w.agent.Cancel(job.ID); err != nil {
				t.Fatal(err)
			}
			return job
		}},
		{"hold-back", 2, func(t *testing.T, w *world) *Job {
			jr := request(5, time.Hour)
			jr.MinHosts = 5
			job, err := w.agent.Submit(w.payToken(t, 20), jr, chunks(5, 10))
			if !errors.Is(err, ErrHoldBack) {
				t.Fatalf("err = %v, want ErrHoldBack", err)
			}
			return job
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newWorld(t, tc.hosts)
			job := tc.release(t, w)
			if job.Released().IsZero() || job.State == StateRunning {
				t.Fatalf("job %s is %v, released at %v: not released", job.ID, job.State, job.Released())
			}
			if job.chunks != nil || job.busy != nil {
				t.Fatalf("released job %s keeps %d chunks and a busy map of %d hosts, want both nil",
					job.ID, len(job.chunks), len(job.busy))
			}
			if job.OnEnd != nil {
				t.Fatalf("released job %s keeps its OnEnd, want nil", job.ID)
			}
			type kept struct {
				state             JobState
				charged, refunded bank.Amount
				reason            string
				hosts, subJobs    int
				records, dropped  int
			}
			keep := func() kept {
				return kept{job.State, job.Charged, job.refunded, job.FailReason,
					len(job.Hosts), len(job.SubJobs), len(job.records), job.dropped}
			}
			want := keep()

			host := w.cluster.HostIDs()[0]
			bidder := auction.BidderID(job.SubAccount)
			w.agent.onHostFailure(grid.HostFailure{
				HostID: host,
				Tasks:  []*grid.Task{{ID: "after-release", Owner: bidder, TotalWork: 1}},
				Bids:   []auction.Charge{{Bidder: bidder, Amount: bank.Credit}},
			})
			if _, err := w.cluster.FailHost(host); err != nil {
				t.Fatal(err)
			}
			w.eng.RunFor(time.Hour)
			if got := keep(); got != want {
				t.Errorf("a host failure after release changed the job: %+v, want %+v", got, want)
			}
			if job.chunks != nil || job.busy != nil {
				t.Errorf("a host failure after release gave the job %d chunks and a busy map of %d hosts",
					len(job.chunks), len(job.busy))
			}
		})
	}
}
