// Package arc is the NorduGrid/ARC-analog meta-scheduler front end of the
// reproduction (paper §3): it accepts xRSL job descriptions, decodes the
// attached transfer token, models input/output staging, hands execution to
// the Tycoon scheduling agent, and exposes the Grid-monitor view of the
// virtualized cluster (where "the number of CPUs are the number of virtual
// machines currently created").
package arc

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"time"

	"tycoongrid/internal/agent"
	"tycoongrid/internal/token"
	"tycoongrid/internal/tracing"
	"tycoongrid/internal/workload"
	"tycoongrid/internal/xrsl"
)

// State mirrors the ARC job states users see in the Grid monitor.
type State string

// ARC job states.
const (
	StateAccepted  State = "ACCEPTED"
	StatePreparing State = "PREPARING" // stage-in
	StateRunning   State = "INLRMS:R"
	StateFinishing State = "FINISHING" // stage-out
	StateFinished  State = "FINISHED"
	StateFailed    State = "FAILED"
	StateKilled    State = "KILLED"
)

// GridJob is one submission as seen by the meta-scheduler.
type GridJob struct {
	ID        string
	Request   *xrsl.JobRequest
	State     State
	Error     string
	Submitted time.Time
	Started   time.Time // execution start (after stage-in)
	Finished  time.Time
	AgentJob  *agent.Job // nil until the agent accepts the job

	// span is the job's lifecycle span while it is open, nil once the job is
	// terminal; spanCtx is all the timeline reads of it, its ids, and all a
	// finished job keeps. The span is sampled like any span.
	span    *tracing.Span
	spanCtx tracing.SpanContext

	// What the timeline is derived from beyond the fields above.
	xrslBytes int        // length of the submitted description
	subJobs   int        // chunks handed to the agent
	record    *agent.Job // the agent's job: AgentJob, or one refused after funding
	match     *match     // the meta-scheduler's pick; nil when no Meta routed the job
}

// Config wires a Manager.
type Config struct {
	ClusterName string
	Agent       *agent.Agent
	// StageInTime and StageOutTime model data transfer per staged file.
	StageInTime  time.Duration
	StageOutTime time.Duration
	// Tracer receives job lifecycle spans. Nil means the process-wide
	// tracing.Default(); replicated experiments inject a per-world tracer
	// that samples nothing, so their jobs fill no shared span ring.
	Tracer *tracing.Tracer
}

// Manager is the ARC-analog job manager.
type Manager struct {
	cfg  Config
	jobs map[string]*GridJob
	seq  int
}

// Errors returned by the manager.
var (
	ErrUnknownJob = errors.New("arc: unknown job")
	ErrNoToken    = errors.New("arc: job description carries no transfer token")
)

// New validates cfg and returns a Manager.
func New(cfg Config) (*Manager, error) {
	if cfg.Agent == nil {
		return nil, errors.New("arc: nil agent")
	}
	if cfg.ClusterName == "" {
		cfg.ClusterName = "tycoon-grid"
	}
	if cfg.Tracer == nil {
		cfg.Tracer = tracing.Default()
	}
	return &Manager{cfg: cfg, jobs: make(map[string]*GridJob)}, nil
}

// DefaultChunkWork models the paper's bag-of-tasks: Count sub-jobs, each
// costing the request's CPUTime (falling back to half the walltime) on a
// reference-speed CPU.
func DefaultChunkWork(jr *xrsl.JobRequest) []float64 {
	per := jr.CPUTime
	if per <= 0 {
		per = jr.WallTime / 2
	}
	out := make([]float64, jr.Count)
	for i := range out {
		out[i] = per.Seconds() * workload.ReferenceMHz
	}
	return out
}

// Submit is SubmitContext with no span to parent the job under.
func (m *Manager) Submit(xrslText string, chunkWork []float64) (*GridJob, error) {
	return m.SubmitContext(context.Background(), xrslText, chunkWork)
}

// SubmitContext accepts an xRSL description. chunkWork overrides the
// per-sub-job CPU work estimate; pass nil to use DefaultChunkWork. The job
// passes PREPARING (stage-in) before execution and FINISHING (stage-out)
// after; both are modeled as fixed per-file delays on the simulation clock.
func (m *Manager) SubmitContext(ctx context.Context, xrslText string, chunkWork []float64) (*GridJob, error) {
	eng := m.cfg.Agent.Engine()
	// The lifecycle span parents under the span in ctx — the HTTP server span
	// of a POST /jobs — and stays open until the job reaches a terminal state.
	span, _ := m.cfg.Tracer.StartSpan(ctx, "job.lifecycle")
	reject := func(err error) (*GridJob, error) {
		span.EndErr(err)
		return nil, err
	}

	desc, err := xrsl.Parse(xrslText)
	if err != nil {
		return reject(err)
	}
	jr, err := desc.ToJobRequest()
	if err != nil {
		return reject(err)
	}
	if jr.TransferToken == "" {
		return reject(ErrNoToken)
	}
	tok, err := token.Decode(jr.TransferToken)
	if err != nil {
		return reject(fmt.Errorf("arc: bad transfer token: %w", err))
	}
	// The decoded token is all the agent reads; the job does not keep the
	// spent text for its life.
	jr.TransferToken = ""
	if chunkWork == nil {
		chunkWork = DefaultChunkWork(jr)
	}

	m.seq++
	gj := &GridJob{
		ID:        fmt.Sprintf("gsiftp://%s/jobs/%d", m.cfg.ClusterName, m.seq),
		Request:   jr,
		State:     StateAccepted,
		Submitted: eng.Now(),
		span:      span,
		spanCtx:   span.Context(),
		xrslBytes: len(xrslText),
		subJobs:   len(chunkWork),
	}
	m.jobs[gj.ID] = gj
	mJobsSubmitted.Inc()
	mJobsQueued.Inc()
	span.SetAttr(tracing.String("job_id", gj.ID))

	// Stage-in: one delay per input file, then hand off to the agent.
	gj.State = StatePreparing
	if err := eng.After(m.stageIn(jr), func() {
		if gj.State != StatePreparing {
			return // killed (or otherwise terminal) during stage-in
		}
		aj, err := m.cfg.Agent.Submit(tok, jr, chunkWork)
		gj.record = aj
		if err != nil {
			m.end(gj, StateFailed, err)
			return
		}
		gj.AgentJob = aj
		gj.State = StateRunning
		gj.Started = eng.Now()
		mJobsQueued.Dec()
		aj.OnEnd = func(aj *agent.Job) {
			if aj.State == agent.StateFailed {
				// Every funded host died, or the deadline passed with work
				// outstanding: the agent has already refunded the unspent
				// balance; surface the reason in the monitor.
				m.end(gj, StateFailed, errors.New("agent: "+aj.FailReason))
				return
			}
			gj.State = StateFinishing
			finish := func() {
				if gj.State == StateFinishing { // not killed during stage-out
					m.end(gj, StateFinished, nil)
				}
			}
			stageOut := time.Duration(len(jr.OutputFiles)) * m.cfg.StageOutTime
			if err := eng.After(stageOut, finish); err != nil {
				finish()
			}
		}
	}); err != nil {
		m.end(gj, StateFailed, err)
		return gj, err
	}
	return gj, nil
}

// end is a job's one terminal step: it puts the job in state with err's text
// as its error (none when err is nil), stamps its finish time, takes it off
// arc_jobs_queued if it was still queued, counts arc_jobs_terminal_total, and
// ends its lifecycle span with err and lets the span go: the job keeps only
// its ids.
func (m *Manager) end(gj *GridJob, state State, err error) {
	if gj.State == StateAccepted || gj.State == StatePreparing {
		mJobsQueued.Dec()
	}
	gj.State = state
	if err != nil {
		gj.Error = err.Error()
	}
	gj.Finished = m.cfg.Agent.Engine().Now()
	noteTerminal(state)
	gj.span.EndErr(err)
	gj.span = nil
}

// Boost adds funding to a running job via a fresh transfer token.
func (m *Manager) Boost(jobID string, encodedToken string) error {
	gj, ok := m.jobs[jobID]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownJob, jobID)
	}
	if gj.AgentJob == nil {
		return fmt.Errorf("arc: job %q not yet running", jobID)
	}
	tok, err := token.Decode(encodedToken)
	if err != nil {
		return fmt.Errorf("arc: bad boost token: %w", err)
	}
	return m.cfg.Agent.Boost(gj.AgentJob.ID, tok)
}

// Cancel kills a job (the ARC "arckill" operation). Unspent funds are
// refunded; the job ends in the KILLED state.
func (m *Manager) Cancel(jobID string) error {
	gj, ok := m.jobs[jobID]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownJob, jobID)
	}
	switch gj.State {
	case StateFinished, StateFailed, StateKilled:
		return fmt.Errorf("arc: job %q already in terminal state %s", jobID, gj.State)
	}
	if gj.AgentJob != nil {
		err := m.cfg.Agent.Cancel(gj.AgentJob.ID)
		if err != nil && !errors.Is(err, agent.ErrJobDone) {
			return err
		}
	}
	m.end(gj, StateKilled, nil)
	return nil
}

// Timeline is the ordered audit trail of one job — the paper's "why did this
// job get that price" record: every state change, funding move, bid and
// placement with prices and escrow balances attached. TraceID and SpanID name
// the job's lifecycle span, which the tracer may or may not have recorded;
// the events do not come from it. Dropped counts the agent's records past
// agent.MaxRecords.
type Timeline struct {
	JobID   string        `json:"job_id"`
	State   State         `json:"state"`
	Error   string        `json:"error,omitempty"`
	TraceID string        `json:"trace_id,omitempty"`
	SpanID  string        `json:"span_id,omitempty"`
	Dropped int           `json:"dropped_events,omitempty"`
	Events  []agent.Event `json:"events"`
}

// Timeline returns the lifecycle timeline of a job, events in time order. It
// is derived on every call from what the job and its agent job keep, so every
// job has one whatever the tracer samples.
func (m *Manager) Timeline(id string) (Timeline, error) {
	gj, ok := m.jobs[id]
	if !ok {
		return Timeline{}, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	tl := Timeline{JobID: gj.ID, State: gj.State, Error: gj.Error}
	if sc := gj.spanCtx; sc.Valid() {
		tl.TraceID = sc.TraceID.String()
		tl.SpanID = sc.SpanID.String()
	}
	jr, mt, at := gj.Request, gj.match, gj.Submitted
	evs := []agent.Event{
		agent.NewEvent(at, "submitted", "xrsl_bytes", strconv.Itoa(gj.xrslBytes)),
		agent.NewEvent(at, "parsed", "sub_jobs", strconv.Itoa(gj.subJobs), "deadline", jr.Deadline().String()),
		agent.NewEvent(at, "stage-in", "files", strconv.Itoa(len(jr.InputFiles)), "duration", m.stageIn(jr).String()),
	}
	if mt != nil {
		evs = append(evs, agent.NewEvent(mt.at, "matchmade", "strategy", mt.strategy, "replica", mt.replica,
			"predicted", fmt.Sprintf("%.6f", mt.predicted), "current", fmt.Sprintf("%.6f", mt.current)))
	}
	if aj := gj.record; aj != nil {
		agentEvs, dropped := m.cfg.Agent.Timeline(aj)
		evs, tl.Dropped = append(evs, agentEvs...), dropped
		if aj.State == agent.StateDone {
			evs = append(evs, agent.NewEvent(aj.Released(), "stage-out", "files", strconv.Itoa(len(jr.OutputFiles))))
		}
	}
	switch gj.State {
	case StateFinished:
		evs = append(evs, agent.NewEvent(gj.Finished, "finished", "charged", gj.AgentJob.Charged.String(),
			"wall", gj.Finished.Sub(gj.Submitted).String()))
	case StateKilled:
		evs = append(evs, agent.NewEvent(gj.Finished, "killed"))
	case StateFailed:
		evs = append(evs, agent.NewEvent(gj.Finished, "failed", "reason", gj.Error))
	}
	if mt != nil && !mt.scoredAt.IsZero() {
		evs = append(evs, agent.NewEvent(mt.scoredAt, "prediction-scored", "strategy", mt.scoredBy,
			"predicted", fmt.Sprintf("%.6f", mt.predicted), "realized", fmt.Sprintf("%.6f", mt.realized),
			"abs_error", fmt.Sprintf("%.6f", math.Abs(mt.predicted-mt.realized))))
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Time.Before(evs[j].Time) })
	tl.Events = evs
	return tl, nil
}

// stageIn is the modeled stage-in delay of a request: one StageInTime per
// input file.
func (m *Manager) stageIn(jr *xrsl.JobRequest) time.Duration {
	return time.Duration(len(jr.InputFiles)) * m.cfg.StageInTime
}

// Job returns a job by id.
func (m *Manager) Job(id string) (*GridJob, error) {
	gj, ok := m.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	return gj, nil
}

// Jobs returns all jobs sorted by id.
func (m *Manager) Jobs() []*GridJob {
	out := make([]*GridJob, 0, len(m.jobs))
	for _, j := range m.jobs {
		out = append(out, j)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// MonitorSnapshot is the Grid-monitor view of the virtual cluster
// (paper Figure 2), and the body of gridmarketd's GET /monitor.
type MonitorSnapshot struct {
	ClusterName   string `json:"ClusterName"`
	PhysicalNodes int    `json:"PhysicalNodes"`
	// VirtualCPUs is the number of VMs currently created — what the ARC
	// monitor reports as the CPU count of the virtualized cluster.
	VirtualCPUs int `json:"VirtualCPUs"`
	// MaxVirtualCPUs is the cap (about 15x the physical nodes).
	MaxVirtualCPUs int `json:"MaxVirtualCPUs"`
	RunningVMs     int `json:"RunningVMs"`
	JobsRunning    int `json:"JobsRunning"`
	JobsQueued     int `json:"JobsQueued"`
	JobsFinished   int `json:"JobsFinished"`
	JobsFailed     int `json:"JobsFailed"`
}

// Monitor summarizes the cluster and job states.
func (m *Manager) Monitor() MonitorSnapshot {
	snap := MonitorSnapshot{ClusterName: m.cfg.ClusterName}
	cl := m.cfg.Agent.Cluster()
	for _, id := range cl.HostIDs() {
		h, err := cl.Host(id)
		if err != nil {
			continue
		}
		snap.PhysicalNodes++
		snap.VirtualCPUs += h.VMs.Live()
		snap.MaxVirtualCPUs += h.Spec.MaxVMs
		snap.RunningVMs += h.VMs.Running()
	}
	for _, j := range m.jobs {
		switch j.State {
		case StateAccepted, StatePreparing:
			snap.JobsQueued++
		case StateRunning, StateFinishing:
			snap.JobsRunning++
		case StateFinished:
			snap.JobsFinished++
		case StateFailed, StateKilled:
			snap.JobsFailed++
		}
	}
	return snap
}
