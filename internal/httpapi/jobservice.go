package httpapi

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"tycoongrid/internal/arc"
	"tycoongrid/internal/sim"
	"tycoongrid/internal/tracing"
)

// JobService exposes the ARC-analog job manager over HTTP: xRSL submission,
// job status, boosting, and the Grid-monitor view. Because the job manager
// and its grid cluster run on a single-threaded simulation engine, every
// request and every engine advance goes through one mutex; the Drive method
// pulls the engine along the wall clock, turning the simulated cluster into
// a live service ("grid market in a box").
type JobService struct {
	mu     sync.Mutex
	mgr    arc.Scheduler
	engine *sim.Engine
	mux    *http.ServeMux
}

// NewJobService wraps mgr (whose agent runs on engine).
func NewJobService(mgr arc.Scheduler, engine *sim.Engine) (*JobService, error) {
	if mgr == nil || engine == nil {
		return nil, errors.New("httpapi: nil job manager or engine")
	}
	s := &JobService{mgr: mgr, engine: engine, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /jobs", s.submit)
	s.mux.HandleFunc("GET /jobs", s.list)
	s.mux.HandleFunc("GET /jobs/{id}/timeline", s.timeline)
	s.mux.HandleFunc("POST /boosts", s.boost)
	s.mux.HandleFunc("POST /cancels", s.cancel)
	s.mux.HandleFunc("GET /monitor", s.monitor)
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *JobService) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Drive advances the simulation engine to the given wall-clock instant.
// Daemons call it from a ticker goroutine; tests call it directly.
func (s *JobService) Drive(now time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if now.After(s.engine.Now()) {
		s.engine.RunUntil(now)
	}
}

// WithLock runs fn while holding the service lock. Anything that touches the
// engine, the bank, or the job manager from outside an HTTP handler — e.g. a
// daemon's demo-token minting, which reads the engine clock — must go
// through here, because Drive mutates the engine concurrently.
func (s *JobService) WithLock(fn func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fn()
}

// JobWire is the public view of a grid job.
type JobWire struct {
	ID        string    `json:"id"`
	State     string    `json:"state"`
	Error     string    `json:"error,omitempty"`
	JobName   string    `json:"job_name,omitempty"`
	Submitted time.Time `json:"submitted"`
	Started   time.Time `json:"started,omitempty"`
	Finished  time.Time `json:"finished,omitempty"`
	// Agent-level detail, present once the job is running.
	SubJobsDone  int      `json:"sub_jobs_done"`
	SubJobsTotal int      `json:"sub_jobs_total"`
	Hosts        []string `json:"hosts,omitempty"`
	Charged      string   `json:"charged,omitempty"`
	// ChargedByHost breaks Charged down by the host that charged it,
	// ascending by host — read off the job's tab, so it is current to the
	// last tick while the job runs and final once it has ended. A host lost
	// to failover keeps its row.
	ChargedByHost []HostChargeWire `json:"charged_by_host,omitempty"`
	DN            string           `json:"dn,omitempty"`
}

// HostChargeWire is one host's part of what a job has been charged.
type HostChargeWire struct {
	Host    string `json:"host"`
	Charged string `json:"charged"`
}

// BoostWire requests additional funding for a job.
type BoostWire struct {
	JobID string `json:"job_id"`
	Token string `json:"token"` // encoded transfer token
}

// CancelWire requests killing a job.
type CancelWire struct {
	JobID string `json:"job_id"`
}

func jobWire(gj *arc.GridJob) JobWire {
	w := JobWire{
		ID:        gj.ID,
		State:     string(gj.State),
		Error:     gj.Error,
		Submitted: gj.Submitted,
		Started:   gj.Started,
		Finished:  gj.Finished,
	}
	if gj.Request != nil {
		w.JobName = gj.Request.JobName
	}
	if aj := gj.AgentJob; aj != nil {
		w.SubJobsDone = aj.Completed()
		w.SubJobsTotal = aj.Total()
		w.Hosts = aj.Hosts
		w.Charged = aj.Charged.String()
		for _, hc := range aj.ChargedByHost() {
			w.ChargedByHost = append(w.ChargedByHost, HostChargeWire{Host: hc.Host, Charged: hc.Charged.String()})
		}
		w.DN = string(aj.DN)
	}
	return w
}

func (s *JobService) submit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil || len(body) == 0 {
		WriteError(w, http.StatusBadRequest, errors.New("httpapi: empty xRSL body"))
		return
	}
	s.mu.Lock()
	// Scope the server span so the job's lifecycle span (and any exemplar the
	// market core records meanwhile) joins this request's trace. The scope
	// stack is safe here because the whole market runs under s.mu.
	release := tracing.Default().PushScope(tracing.SpanFromContext(r.Context()))
	gj, err := s.mgr.Submit(string(body), nil)
	release()
	var out JobWire
	if err == nil {
		out = jobWire(gj) // serialize under the lock; Drive mutates jobs
	}
	s.mu.Unlock()
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	WriteJSON(w, out)
}

// list returns all jobs, or a single job when the id query parameter is
// present (job ids are gsiftp URLs, so they travel as a query value rather
// than a path segment).
func (s *JobService) list(w http.ResponseWriter, r *http.Request) {
	if id := r.URL.Query().Get("id"); id != "" {
		s.mu.Lock()
		gj, err := s.mgr.Job(id)
		var out JobWire
		if err == nil {
			out = jobWire(gj)
		}
		s.mu.Unlock()
		if err != nil {
			WriteError(w, http.StatusNotFound, err)
			return
		}
		WriteJSON(w, out)
		return
	}
	s.mu.Lock()
	jobs := s.mgr.Jobs()
	out := make([]JobWire, len(jobs))
	for i, gj := range jobs {
		out[i] = jobWire(gj)
	}
	s.mu.Unlock()
	WriteJSON(w, out)
}

func (s *JobService) boost(w http.ResponseWriter, r *http.Request) {
	var req BoostWire
	if err := ReadJSON(r, &req); err != nil {
		WriteError(w, ReadStatus(err), err)
		return
	}
	s.mu.Lock()
	err := s.mgr.Boost(req.JobID, req.Token)
	s.mu.Unlock()
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, arc.ErrUnknownJob) {
			status = http.StatusNotFound
		}
		WriteError(w, status, err)
		return
	}
	WriteJSON(w, map[string]string{"status": "ok"})
}

func (s *JobService) cancel(w http.ResponseWriter, r *http.Request) {
	var req CancelWire
	if err := ReadJSON(r, &req); err != nil {
		WriteError(w, ReadStatus(err), err)
		return
	}
	s.mu.Lock()
	err := s.mgr.Cancel(req.JobID)
	s.mu.Unlock()
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, arc.ErrUnknownJob) {
			status = http.StatusNotFound
		}
		WriteError(w, status, err)
		return
	}
	WriteJSON(w, map[string]string{"status": "killed"})
}

// timeline serves a job's lifecycle audit trail. Job ids are gsiftp URLs, so
// clients path-escape them into the single {id} segment.
func (s *JobService) timeline(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	tl, err := s.mgr.Timeline(id)
	s.mu.Unlock()
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, arc.ErrUnknownJob) {
			status = http.StatusNotFound
		}
		WriteError(w, status, err)
		return
	}
	WriteJSON(w, tl)
}

func (s *JobService) monitor(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	snap := s.mgr.Monitor()
	s.mu.Unlock()
	WriteJSON(w, snap)
}

// JobClient is the typed client for a JobService.
type JobClient struct {
	base string
	call Caller
}

// NewJobClient targets base. A nil client defaults to one with
// DefaultClientTimeout. Reads and the token-protected Boost (the bank's
// spent-store rejects a replayed transfer token) are retried with backoff;
// Submit and Cancel are single attempts. All calls share one circuit
// breaker named "job".
func NewJobClient(base string, client *http.Client) *JobClient {
	return &JobClient{base: strings.TrimSuffix(base, "/"), call: newCaller("job", client)}
}

// Submit posts an xRSL description and returns the accepted job.
func (c *JobClient) Submit(xrslText string) (JobWire, error) {
	var out JobWire
	err := c.call.rawPost(context.Background(), c.base+"/jobs", "text/plain", xrslText, &out)
	return out, err
}

// Job fetches one job.
func (c *JobClient) Job(id string) (JobWire, error) {
	var out JobWire
	err := c.call.get(context.Background(), c.base+"/jobs?id="+url.QueryEscape(id), &out)
	return out, err
}

// Jobs lists all jobs.
func (c *JobClient) Jobs() ([]JobWire, error) {
	var out []JobWire
	err := c.call.get(context.Background(), c.base+"/jobs", &out)
	return out, err
}

// Boost adds funding to a running job.
func (c *JobClient) Boost(jobID, encodedToken string) error {
	// Retried: the token can only be deposited once, so a replayed boost
	// whose first response was lost is rejected harmlessly by the bank.
	return c.call.postIdempotent(context.Background(), c.base+"/boosts", BoostWire{JobID: jobID, Token: encodedToken}, nil)
}

// Cancel kills a job.
func (c *JobClient) Cancel(jobID string) error {
	return c.call.post(context.Background(), c.base+"/cancels", CancelWire{JobID: jobID}, nil)
}

// Timeline fetches a job's lifecycle timeline.
func (c *JobClient) Timeline(id string) (arc.Timeline, error) {
	var out arc.Timeline
	err := c.call.get(context.Background(), c.base+"/jobs/"+url.PathEscape(id)+"/timeline", &out)
	return out, err
}

// Monitor fetches the Grid-monitor snapshot.
func (c *JobClient) Monitor() (arc.MonitorSnapshot, error) {
	var out arc.MonitorSnapshot
	err := c.call.get(context.Background(), c.base+"/monitor", &out)
	return out, err
}
