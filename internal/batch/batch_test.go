package batch

import (
	"testing"
	"time"

	"tycoongrid/internal/sim"
)

func work(minutes float64) float64 { return minutes * 60 * 2800 }

func sched(t *testing.T, hosts, cpus int) (*Scheduler, *sim.Engine) {
	t.Helper()
	eng := sim.NewEngine()
	s, err := New(eng, hosts, cpus, 2800)
	if err != nil {
		t.Fatal(err)
	}
	return s, eng
}

func TestNewValidation(t *testing.T) {
	eng := sim.NewEngine()
	if _, err := New(nil, 1, 1, 100); err == nil {
		t.Error("nil engine accepted")
	}
	if _, err := New(eng, 0, 1, 100); err == nil {
		t.Error("zero hosts accepted")
	}
	if _, err := New(eng, 1, 1, 0); err == nil {
		t.Error("zero MHz accepted")
	}
}

func TestSingleJobRunsAtFullSpeed(t *testing.T) {
	s, eng := sched(t, 2, 2)
	j, err := s.Submit(0, []float64{work(10), work(10), work(10), work(10)}, 0)
	if err != nil {
		t.Fatal(err)
	}
	eng.RunFor(time.Hour)
	if !j.Done() {
		t.Fatalf("job unfinished: %d/4", j.completed)
	}
	// 4 sub-jobs on 4 CPUs: one wave of 10 minutes.
	if j.Duration() != 10*time.Minute {
		t.Errorf("duration = %v", j.Duration())
	}
	if j.MeanLatency() != 10*time.Minute {
		t.Errorf("latency = %v", j.MeanLatency())
	}
}

func TestWavesWhenCPUsScarce(t *testing.T) {
	s, eng := sched(t, 1, 2)
	j, err := s.Submit(0, []float64{work(10), work(10), work(10), work(10)}, 0)
	if err != nil {
		t.Fatal(err)
	}
	eng.RunFor(time.Hour)
	// 4 sub-jobs on 2 CPUs: two waves.
	if j.Duration() != 20*time.Minute {
		t.Errorf("duration = %v", j.Duration())
	}
}

func TestFIFOOrdering(t *testing.T) {
	s, eng := sched(t, 1, 1)
	first, err := s.Submit(0, []float64{work(10)}, 0)
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.Submit(0, []float64{work(10)}, 0)
	if err != nil {
		t.Fatal(err)
	}
	eng.RunFor(time.Hour)
	if !first.Done() || !second.Done() {
		t.Fatal("jobs unfinished")
	}
	// Second waits for first: no money can change FIFO order.
	if first.MeanWait() != 0 {
		t.Errorf("first wait = %v", first.MeanWait())
	}
	if second.MeanWait() != 10*time.Minute {
		t.Errorf("second wait = %v", second.MeanWait())
	}
	if second.Duration() != 20*time.Minute {
		t.Errorf("second duration = %v", second.Duration())
	}
}

func TestAdminPriorityJumpsQueue(t *testing.T) {
	s, eng := sched(t, 1, 1)
	// Occupy the CPU so both later jobs must queue.
	if _, err := s.Submit(0, []float64{work(10)}, 0); err != nil {
		t.Fatal(err)
	}
	normal, err := s.Submit(0, []float64{work(10)}, 0)
	if err != nil {
		t.Fatal(err)
	}
	urgent, err := s.Submit(5, []float64{work(10)}, 0)
	if err != nil {
		t.Fatal(err)
	}
	eng.RunFor(time.Hour)
	if urgent.MeanWait() >= normal.MeanWait() {
		t.Errorf("priority ignored: urgent waited %v, normal %v",
			urgent.MeanWait(), normal.MeanWait())
	}
}

func TestMaxNodesCap(t *testing.T) {
	s, eng := sched(t, 4, 2) // 8 CPUs
	j, err := s.Submit(0, []float64{work(10), work(10), work(10), work(10)}, 2)
	if err != nil {
		t.Fatal(err)
	}
	eng.RunFor(time.Hour)
	// Capped at 2 concurrent: two waves despite 8 free CPUs.
	if j.Duration() != 20*time.Minute {
		t.Errorf("duration = %v", j.Duration())
	}
}

func TestHeadOfLineBlocking(t *testing.T) {
	// Strict FIFO (no backfill): a capped head job leaves CPUs idle that a
	// later job could use — the inefficiency markets avoid via prices.
	s, eng := sched(t, 2, 1) // 2 CPUs
	head, err := s.Submit(0, []float64{work(10), work(10), work(10)}, 1)
	if err != nil {
		t.Fatal(err)
	}
	tail, err := s.Submit(0, []float64{work(10)}, 0)
	if err != nil {
		t.Fatal(err)
	}
	eng.RunFor(time.Hour)
	if !head.Done() || !tail.Done() {
		t.Fatal("jobs unfinished")
	}
	// The tail job waited for the whole head job despite an idle CPU.
	if tail.MeanWait() < 20*time.Minute {
		t.Errorf("expected head-of-line blocking, tail waited %v", tail.MeanWait())
	}
}

func TestSubmitValidation(t *testing.T) {
	s, _ := sched(t, 1, 1)
	if _, err := s.Submit(0, nil, 0); err == nil {
		t.Error("empty job accepted")
	}
}

func TestQueueDrains(t *testing.T) {
	s, eng := sched(t, 1, 2)
	j, err := s.Submit(0, []float64{work(5), work(5), work(5)}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.free) != 0 {
		t.Errorf("free = %d", len(s.free))
	}
	if len(s.queue) != 1 { // one sub-job still queued
		t.Errorf("queue = %d", len(s.queue))
	}
	eng.RunFor(time.Hour)
	if len(s.free) != 2 || len(s.queue) != 0 {
		t.Errorf("after drain: free=%d queue=%d", len(s.free), len(s.queue))
	}
	if j.Duration() != 10*time.Minute { // 3 sub-jobs on 2 CPUs
		t.Errorf("duration = %v", j.Duration())
	}
}
