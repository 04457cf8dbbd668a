package agent

import (
	"errors"
	"testing"
	"time"

	"tycoongrid/internal/bank"
)

// TestRefundMemoSaysHowTheJobEnded: the refund that releases a job's escrow
// is booked under a memo that says how the job ended — finished, cancelled,
// failed while running, or refused after funding — and the ledger entry and
// the job's timeline carry the same memo.
func TestRefundMemoSaysHowTheJobEnded(t *testing.T) {
	for _, tc := range []struct {
		name, memo string
		hosts      int
		end        func(t *testing.T, w *world) *Job
	}{
		{"finished", "refund ", 2, func(t *testing.T, w *world) *Job {
			job, err := w.agent.Submit(w.payToken(t, 100), request(2, 8*time.Hour), chunks(4, 30))
			if err != nil {
				t.Fatal(err)
			}
			w.eng.RunFor(8 * time.Hour)
			return job
		}},
		{"cancelled", "cancel refund ", 2, func(t *testing.T, w *world) *Job {
			job, err := w.agent.Submit(w.payToken(t, 60), request(2, 6*time.Hour), chunks(4, 30))
			if err != nil {
				t.Fatal(err)
			}
			w.eng.RunFor(10 * time.Minute)
			if err := w.agent.Cancel(job.ID); err != nil {
				t.Fatal(err)
			}
			return job
		}},
		{"failed", "failure refund ", 1, func(t *testing.T, w *world) *Job {
			job, err := w.agent.Submit(w.payToken(t, 40), request(1, 6*time.Hour), chunks(4, 30))
			if err != nil {
				t.Fatal(err)
			}
			w.eng.RunFor(15 * time.Minute)
			if _, err := w.cluster.FailHost(job.Hosts[0]); err != nil {
				t.Fatal(err)
			}
			return job
		}},
		{"held back", "hold-back refund ", 2, func(t *testing.T, w *world) *Job {
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
			job := tc.end(t, w)
			if job.Released().IsZero() || job.refunded <= 0 {
				t.Fatalf("job %s released at %v with %v refunded; want a refund", job.ID, job.Released(), job.refunded)
			}
			want := tc.memo + job.ID

			var refunds []bank.Entry
			for _, e := range w.bank.History(job.SubAccount) {
				if e.Kind == bank.EntryRefund {
					refunds = append(refunds, e)
				}
			}
			if len(refunds) != 1 || refunds[0].Memo != want || refunds[0].Amount != job.refunded {
				t.Errorf("ledger refunds = %+v, want one of %v under %q", refunds, job.refunded, want)
			}

			events, _ := w.agent.Timeline(job)
			var memos []string
			for _, e := range events {
				if e.Name != "bank.refund" {
					continue
				}
				for _, a := range e.Attrs {
					if a.Key == "memo" {
						memos = append(memos, a.Value)
					}
				}
			}
			if len(memos) != 1 || memos[0] != want {
				t.Errorf("timeline refund memos = %q, want [%q]", memos, want)
			}
		})
	}
}
