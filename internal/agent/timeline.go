package agent

import (
	"fmt"
	"time"

	"tycoongrid/internal/bank"
	"tycoongrid/internal/tracing"
)

// MaxRecords caps a job's records: the boosts, preemptions and failovers its
// other fields do not keep. Records past the cap are counted, not kept, and
// the timeline reports the count as dropped.
const MaxRecords = 128

// reasonCancelled is the FailReason of a job ended by Cancel.
const reasonCancelled = "cancelled"

// refundMemo is the memo prefix of the refund that releases job's escrow,
// read from how the job ended: "refund " when it finished, "cancel refund "
// when it was cancelled, "failure refund " when it failed while running, and
// "hold-back refund " when its submission was refused after funding. The
// ledger entry and the timeline both take it from here.
func refundMemo(job *Job) string {
	switch {
	case job.State == StateDone:
		return "refund "
	case job.FailReason == reasonCancelled:
		return "cancel refund "
	case job.FailReason != "":
		return "failure refund "
	}
	return "hold-back refund "
}

type recordKind uint8

const (
	recBoosted recordKind = iota
	recPreempted
	recFailedOver
)

// record is one thing that happened to a job that none of its other fields
// keeps. What each field holds depends on the kind; the timeline formats them
// when it is read, so writing one costs no formatting.
type record struct {
	at     time.Time
	kind   recordKind
	placed int         // len(SubJobs) when recorded: the placements it follows
	host   string      // preempted: the failed host; failed-over: from
	other  string      // preempted: the killed task; failed-over: to
	amount bank.Amount // boosted, failed-over: the amount
	budget bank.Amount // boosted: the budget after it
	escrow bank.Amount // boosted, failed-over: the budget net of the charges so far
}

// note appends r to the job's records, stamped with the number of sub-jobs
// placed so far, or counts it as dropped once the job holds MaxRecords.
func (j *Job) note(r record) {
	if len(j.records) >= MaxRecords {
		j.dropped++
		return
	}
	r.placed = len(j.SubJobs)
	j.records = append(j.records, r)
}

func (r *record) event() Event {
	switch r.kind {
	case recBoosted:
		return NewEvent(r.at, "boosted", "amount", r.amount.String(), "budget", r.budget.String(),
			"escrow", r.escrow.String())
	case recPreempted:
		return NewEvent(r.at, "preempted", "host", r.host, "task", r.other, "reason", "host failure")
	default:
		return NewEvent(r.at, "failed-over", "from", r.host, "to", r.other, "amount", r.amount.String(),
			"escrow", r.escrow.String())
	}
}

// Event is one entry of a job's timeline: what happened, at which simulated
// instant, with its attributes formatted for reading.
type Event struct {
	Time  time.Time      `json:"time"`
	Name  string         `json:"name"`
	Attrs []tracing.Attr `json:"attrs,omitempty"`
}

// NewEvent builds an Event from alternating attribute keys and values.
func NewEvent(at time.Time, name string, kv ...string) Event {
	e := Event{Time: at, Name: name}
	for i := 0; i+1 < len(kv); i += 2 {
		e.Attrs = append(e.Attrs, tracing.String(kv[i], kv[i+1]))
	}
	return e
}

// Timeline returns job's lifecycle as the agent saw it, in the order it
// happened: the funding of its sub-account, its bids, every placement, its
// records, and the release of its escrow with the charge and refund entries
// that release wrote to the ledger. It is derived from the job's own fields
// on every call, so it does not depend on what any tracer samples. dropped
// counts the records past MaxRecords that it lacks.
func (a *Agent) Timeline(job *Job) (events []Event, dropped int) {
	add := func(at time.Time, name string, kv ...string) { events = append(events, NewEvent(at, name, kv...)) }
	sub, broker, funded := string(job.SubAccount), string(a.cfg.Account), job.funded.String()
	add(job.Submitted, "bank.transfer", "from", broker, "to", sub, "amount", funded, "memo", "fund "+job.ID)
	add(job.Submitted, "funded", "sub_account", sub, "budget", funded, "escrow", funded)
	for _, b := range job.Bids {
		add(job.Submitted, "bid", "host", b.Host, "amount", b.Amount.String(), "price", price(b.Price),
			"rate", price(b.Rate))
	}
	recs := job.records
	for i, s := range job.SubJobs {
		for ; len(recs) > 0 && recs[0].placed <= i; recs = recs[1:] {
			events = append(events, recs[0].event())
		}
		add(s.Started, "placed", "host", s.Host, "task", s.TaskID, "sub_job", fmt.Sprintf("%d/%d", s.Index+1, job.total),
			"price", price(s.Price), "vm", s.VM, "ready_at", s.ReadyAt.Format(time.RFC3339))
	}
	for _, r := range recs {
		events = append(events, r.event())
	}
	if job.releasedAt.IsZero() {
		return events, job.dropped
	}

	at, escrow := job.releasedAt, (job.Budget - job.Charged).String()
	switch {
	case job.FailReason == reasonCancelled:
		add(at, "cancelled", "escrow", escrow)
	case job.FailReason != "":
		add(at, "failed", "reason", job.FailReason, "escrow", escrow)
	}
	for _, row := range job.tab {
		if row.charged > 0 {
			add(at, "bank.charge", "from", sub, "to", string(earningsAccount),
				"amount", row.charged.String(), "memo", "cpu "+row.host)
		}
	}
	if job.refunded > 0 {
		add(at, "bank.refund", "from", sub, "to", broker, "amount", job.refunded.String(), "memo", refundMemo(job)+job.ID)
	}
	if job.State == StateDone {
		add(at, "completed", "charged", job.Charged.String(), "refunded", job.refunded.String(),
			"sub_jobs", fmt.Sprintf("%d/%d", job.done, job.total))
	}
	return events, job.dropped
}

// price formats a price or rate in credits/second as the timeline shows it.
func price(p float64) string { return fmt.Sprintf("%.6f", p) }
