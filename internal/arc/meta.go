package arc

import (
	"errors"
	"fmt"
	"math"
	"time"

	"tycoongrid/internal/strategy"
)

// Scheduler is the job-scheduling front door both deployments offer: a single
// *Manager, or a *Meta matchmaking across partitioned ones. The HTTP layer and
// the assembled world hold one without knowing which.
type Scheduler interface {
	Submit(xrslText string, chunkWork []float64) (*GridJob, error)
	Job(id string) (*GridJob, error)
	Jobs() []*GridJob
	Boost(jobID, encodedToken string) error
	Cancel(jobID string) error
	Timeline(id string) (Timeline, error)
	Monitor() MonitorSnapshot
}

// Meta is the paper's replicated-agent deployment (§3): several Managers,
// each backed by an agent partitioned onto a different set of compute nodes,
// with "the ARC meta-scheduler ... used to load balance and do job to
// cluster matchmaking between the replicas". Matchmaking delegates to a
// pluggable strategy.Strategy — current spot price by default, price
// prediction or the Markowitz portfolio when injected — so the scheduler
// itself never branches on the policy.
type Meta struct {
	replicas []*Manager
	// cands holds, per replica, the candidate fields that outlive a pick: id,
	// step, the lazy history source and the forecast handle.
	cands []strategy.Candidate
	// picking is the copy of cands a pick hands the strategy, kept between
	// picks so a pick allocates no candidate slice.
	picking []strategy.Candidate
	strat   strategy.Strategy
	horizon time.Duration
	index   map[string]*Manager // jobID -> owning replica

	// Predicted-vs-realized scoring, accumulated horizon after each pick.
	scored    int
	absErrSum float64
}

// NewMeta builds a meta-scheduler over the given replicas. The default
// matchmaking strategy picks the partition with the lowest current mean spot
// price, rotating deterministically among exact ties; use SetStrategy to
// inject a prediction- or portfolio-driven policy.
//
// NewMeta asks every replica's agent for its history and forecast handles,
// which hang the markets' price rings and the predictors (agent.HistoryHandle,
// agent.ForecastHandle): build the meta-scheduler before the first market
// clear, or the histories and forecasts miss the clears before it.
func NewMeta(replicas ...*Manager) (*Meta, error) {
	if len(replicas) == 0 {
		return nil, errors.New("arc: meta-scheduler needs at least one replica")
	}
	cands := make([]strategy.Candidate, len(replicas))
	for i, r := range replicas {
		if r == nil {
			return nil, fmt.Errorf("arc: replica %d is nil", i)
		}
		ag := r.cfg.Agent
		cands[i] = strategy.Candidate{
			ID:       r.cfg.ClusterName,
			Step:     ag.Cluster().Interval(),
			Hist:     ag.HistoryHandle(),
			Forecast: ag.ForecastHandle(),
		}
	}
	def, err := strategy.New(strategy.CurrentPrice, strategy.Config{})
	if err != nil {
		return nil, err
	}
	return &Meta{
		replicas: replicas,
		cands:    cands,
		strat:    def,
		index:    make(map[string]*Manager),
	}, nil
}

// SetStrategy replaces the matchmaking policy. horizon > 0 additionally
// scores each pick: that long after submission the chosen partition's
// realized price is compared against the strategy's forecast, recorded as a
// "prediction-scored" timeline event and in PredictionStats. A nil strategy
// restores the default current-price policy.
func (m *Meta) SetStrategy(s strategy.Strategy, horizon time.Duration) {
	if s == nil {
		s, _ = strategy.New(strategy.CurrentPrice, strategy.Config{})
	}
	m.strat = s
	m.horizon = horizon
}

// Strategy returns the active matchmaking strategy's name.
func (m *Meta) Strategy() string { return m.strat.Name() }

// Replicas returns the number of managed replicas.
func (m *Meta) Replicas() int { return len(m.replicas) }

// pick delegates replica selection to the strategy, handing it each
// partition's current price, its forecast handle — which the predicted-*
// strategies read instead of a history — and a lazy history source that only
// the portfolio strategy materializes. Every pick copies the candidates
// afresh, into storage the Meta keeps, because a strategy memoizes the
// history it fetched on its Candidate: the copy resets that memo.
func (m *Meta) pick() (*Manager, strategy.Pick) {
	m.picking = append(m.picking[:0], m.cands...)
	cands := m.picking
	for i, r := range m.replicas {
		cands[i].CurrentPrice = r.cfg.Agent.MeanSpotPrice()
	}
	p, err := m.strat.Pick(cands)
	if err != nil || p.Index < 0 || p.Index >= len(m.replicas) {
		// A strategy can only fail on an empty candidate list, which NewMeta
		// rules out; fall back to the first replica rather than dropping work.
		return m.replicas[0], strategy.Pick{Predicted: cands[0].CurrentPrice}
	}
	return m.replicas[p.Index], p
}

// Submit matchmakes the job to a replica chosen by the strategy.
func (m *Meta) Submit(xrslText string, chunkWork []float64) (*GridJob, error) {
	r, p := m.pick()
	gj, err := r.Submit(xrslText, chunkWork)
	if err != nil {
		return nil, err
	}
	m.index[gj.ID] = r
	mMetaPicks.With(m.strat.Name(), r.cfg.ClusterName).Inc()
	eng := r.cfg.Agent.Engine()
	gj.match = &match{at: eng.Now(), strategy: m.strat.Name(), replica: r.cfg.ClusterName,
		predicted: p.Predicted, current: r.cfg.Agent.MeanSpotPrice()}
	if m.horizon > 0 {
		if err := eng.After(m.horizon, func() {
			m.scorePrediction(r, gj)
		}); err != nil {
			// Engine already stopped; scoring is best-effort diagnostics.
			_ = err
		}
	}
	return gj, nil
}

// scorePrediction compares the price the strategy forecast at matchmaking
// time against the partition's realized mean spot price one horizon later.
func (m *Meta) scorePrediction(r *Manager, gj *GridJob) {
	mt := gj.match
	mt.scoredAt, mt.scoredBy = r.cfg.Agent.Engine().Now(), m.strat.Name()
	mt.realized = r.cfg.Agent.MeanSpotPrice()
	absErr := math.Abs(mt.predicted - mt.realized)
	m.scored++
	m.absErrSum += absErr
	mMetaPredictionError.Observe(absErr)
}

// match is a job's record of its matchmaking: the pick, and one horizon later
// the realized price it is scored against.
type match struct {
	at                 time.Time
	strategy, replica  string
	predicted, current float64

	scoredAt time.Time // zero until scored
	scoredBy string    // the strategy at scoring time
	realized float64
}

// PredictionStats summarizes predicted-vs-realized price accuracy across all
// scored picks (empty until horizon-delayed scoring has fired).
type PredictionStats struct {
	MeanAbsError float64
}

// PredictionStats returns the accumulated forecast-accuracy summary.
func (m *Meta) PredictionStats() PredictionStats {
	var st PredictionStats
	if m.scored > 0 {
		st.MeanAbsError = m.absErrSum / float64(m.scored)
	}
	return st
}

// owner resolves the replica managing a job: an index hit for meta-submitted
// jobs, otherwise a scan (jobs submitted directly to a replica bypass
// Submit), cached for next time.
func (m *Meta) owner(id string) (*Manager, bool) {
	if r, ok := m.index[id]; ok {
		return r, true
	}
	for _, r := range m.replicas {
		if _, err := r.Job(id); err == nil {
			m.index[id] = r
			return r, true
		}
	}
	return nil, false
}

// Job looks a job up across all replicas.
func (m *Meta) Job(id string) (*GridJob, error) {
	r, ok := m.owner(id)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	return r.Job(id)
}

// Jobs returns every replica's jobs.
func (m *Meta) Jobs() []*GridJob {
	var out []*GridJob
	for _, r := range m.replicas {
		out = append(out, r.Jobs()...)
	}
	return out
}

// Boost routes a boost to whichever replica owns the job.
func (m *Meta) Boost(jobID, encodedToken string) error {
	r, ok := m.owner(jobID)
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownJob, jobID)
	}
	return r.Boost(jobID, encodedToken)
}

// Cancel routes a cancellation to whichever replica owns the job.
func (m *Meta) Cancel(jobID string) error {
	r, ok := m.owner(jobID)
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownJob, jobID)
	}
	return r.Cancel(jobID)
}

// Timeline serves the owning replica's job timeline.
func (m *Meta) Timeline(id string) (Timeline, error) {
	r, ok := m.owner(id)
	if !ok {
		return Timeline{}, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	return r.Timeline(id)
}

// Monitor aggregates the replica snapshots. Per-host VM counts would double
// count when replicas share physical hosts, so each replica contributes only
// its own partition's job counters; the first replica supplies the cluster
// topology.
func (m *Meta) Monitor() MonitorSnapshot {
	snap := m.replicas[0].Monitor()
	for _, r := range m.replicas[1:] {
		s := r.Monitor()
		snap.JobsRunning += s.JobsRunning
		snap.JobsQueued += s.JobsQueued
		snap.JobsFinished += s.JobsFinished
		snap.JobsFailed += s.JobsFailed
	}
	return snap
}
