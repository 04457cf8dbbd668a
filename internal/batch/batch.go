// Package batch implements the baseline the paper's motivation argues
// against (§2.1): a traditional FIFO batch scheduler of the PBS/SGE/LSF
// family, where "job priorities can simply be set by administrative means"
// and money plays no role. Jobs queue in arrival order (optionally with an
// administrative priority), each sub-job gets a dedicated CPU when one is
// free, and nobody can trade funding for latency.
//
// The comparison experiment (internal/experiment/ablation.go) runs the same
// five-user workload under this scheduler and under the Tycoon market to
// show what the market adds: incentive-compatible differentiation and
// work-conserving preemption, versus the batch scheduler's rigid
// first-come-first-served service order.
package batch

import (
	"container/heap"
	"errors"
	"fmt"
	"sort"
	"time"

	"tycoongrid/internal/sim"
)

// Job is one batch submission: a bag of equally sized sub-jobs.
type Job struct {
	ID       string
	User     string
	Priority int // administrative priority; higher runs first
	// SubJobs is the per-sub-job CPU work in MHz-seconds.
	SubJobs []float64
	// MaxNodes caps concurrently running sub-jobs.
	MaxNodes int

	Submitted time.Time
	started   []time.Time
	done      []time.Time
	completed int
	running   int
	next      int
}

// Done reports whether every sub-job finished.
func (j *Job) Done() bool { return j.completed == len(j.SubJobs) }

// Duration returns submit-to-last-completion wall time (0 while running).
func (j *Job) Duration() time.Duration {
	if !j.Done() {
		return 0
	}
	var last time.Time
	for _, d := range j.done {
		if d.After(last) {
			last = d
		}
	}
	return last.Sub(j.Submitted)
}

// MeanLatency returns the mean sub-job wall time.
func (j *Job) MeanLatency() time.Duration {
	var sum time.Duration
	n := 0
	for i := range j.done {
		if !j.done[i].IsZero() {
			sum += j.done[i].Sub(j.started[i])
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / time.Duration(n)
}

// MeanWait returns the mean time dispatched sub-jobs spent queued before a
// CPU was granted — the user-visible cost of FIFO service.
func (j *Job) MeanWait() time.Duration {
	var sum time.Duration
	n := 0
	for i := range j.started {
		if !j.started[i].IsZero() {
			sum += j.started[i].Sub(j.Submitted)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / time.Duration(n)
}

// queue orders jobs by (priority desc, submit time asc, id).
type queue []*Job

func (q queue) Len() int { return len(q) }
func (q queue) Less(i, j int) bool {
	if q[i].Priority != q[j].Priority {
		return q[i].Priority > q[j].Priority
	}
	if !q[i].Submitted.Equal(q[j].Submitted) {
		return q[i].Submitted.Before(q[j].Submitted)
	}
	return q[i].ID < q[j].ID
}
func (q queue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *queue) Push(x any)   { *q = append(*q, x.(*Job)) }
func (q *queue) Pop() any {
	old := *q
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return x
}

// Scheduler is a FIFO batch scheduler over a fixed set of CPUs, driven by
// the discrete-event engine. Each sub-job gets a whole dedicated CPU — the
// space-sharing model of classic HPC batch systems (no time-sharing, no
// preemption).
type Scheduler struct {
	engine *sim.Engine
	cpuMHz float64
	free   []int // free CPU ids
	queue  queue
	seq    int
}

// New creates a scheduler with hosts*cpusPerHost identical CPUs of cpuMHz.
func New(engine *sim.Engine, hosts, cpusPerHost int, cpuMHz float64) (*Scheduler, error) {
	if engine == nil {
		return nil, errors.New("batch: nil engine")
	}
	if hosts < 1 || cpusPerHost < 1 || cpuMHz <= 0 {
		return nil, fmt.Errorf("batch: bad cluster shape %d x %d x %v", hosts, cpusPerHost, cpuMHz)
	}
	s := &Scheduler{
		engine: engine,
		cpuMHz: cpuMHz,
	}
	for i := 0; i < hosts*cpusPerHost; i++ {
		s.free = append(s.free, i)
	}
	return s, nil
}

// Submit queues a job.
func (s *Scheduler) Submit(user string, priority int, subJobs []float64, maxNodes int) (*Job, error) {
	if len(subJobs) == 0 {
		return nil, errors.New("batch: empty job")
	}
	if maxNodes < 1 {
		maxNodes = len(subJobs)
	}
	s.seq++
	j := &Job{
		ID:        fmt.Sprintf("batch-%04d", s.seq),
		User:      user,
		Priority:  priority,
		SubJobs:   append([]float64(nil), subJobs...),
		MaxNodes:  maxNodes,
		Submitted: s.engine.Now(),
		started:   make([]time.Time, len(subJobs)),
		done:      make([]time.Time, len(subJobs)),
	}
	heap.Push(&s.queue, j)
	s.dispatch()
	return j, nil
}

// dispatch starts queued sub-jobs on free CPUs, respecting FIFO order and
// per-job node caps. Space sharing: a dispatched sub-job holds its CPU for
// work/cpuMHz seconds.
func (s *Scheduler) dispatch() {
	// Walk jobs in priority order; within the head job, start as many
	// sub-jobs as caps allow. Classic batch behaviour: the queue head may
	// block lower-priority jobs even if it cannot use every free CPU
	// (no backfilling in the baseline).
	ordered := make([]*Job, len(s.queue))
	copy(ordered, s.queue)
	sort.Sort(queue(ordered))
	for _, j := range ordered {
		for len(s.free) > 0 && j.next < len(j.SubJobs) && j.running < j.MaxNodes {
			s.startSubJob(j)
		}
		if j.next < len(j.SubJobs) {
			// Head job still has queued sub-jobs; strict FIFO blocks the rest.
			break
		}
	}
	s.compactQueue()
	mBatchQueueDepth.Set(float64(len(s.queue)))
	mBatchFreeCPUs.Set(float64(len(s.free)))
}

func (s *Scheduler) startSubJob(j *Job) {
	cpuID := s.free[len(s.free)-1]
	s.free = s.free[:len(s.free)-1]
	idx := j.next
	j.next++
	j.running++
	j.started[idx] = s.engine.Now()
	runFor := time.Duration(j.SubJobs[idx] / s.cpuMHz * float64(time.Second))
	if _, err := s.engine.After(runFor, func() {
		j.done[idx] = s.engine.Now()
		j.completed++
		j.running--
		s.free = append(s.free, cpuID)
		s.dispatch()
	}); err != nil {
		// Scheduling in the past cannot happen with runFor >= 0.
		panic(fmt.Sprintf("batch: scheduling completion: %v", err))
	}
}

// compactQueue drops fully dispatched jobs from the queue.
func (s *Scheduler) compactQueue() {
	kept := s.queue[:0]
	for _, j := range s.queue {
		if j.next < len(j.SubJobs) {
			kept = append(kept, j)
		}
	}
	s.queue = kept
	heap.Init(&s.queue)
}
