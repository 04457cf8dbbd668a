package experiment

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"tycoongrid/internal/agent"
	"tycoongrid/internal/bank"
)

// ScaleParams configures the horizontal-scale experiment family: the same
// competing-users workload run at increasing auctioneer shard counts, i.e.
// with the cluster's markets cleared on that many goroutines. The family
// answers two questions — does the sharded plane produce a healthy market
// (jobs complete, money conserved), and do the outcome metrics stay put as
// the plane is partitioned (they must: the rows are identical). Raw
// throughput at benchmark scale is the bench package's plane-burst workload;
// this family exercises the full stack (agent, grid, bank, VM managers) at
// workload scale.
type ScaleParams struct {
	World        WorldConfig
	ShardCounts  []int         // one run per entry; values below 1 mean 1
	Budget       bank.Amount   // per-user funding
	Deadline     time.Duration // bid deadline
	SubJobs      int           // chunks per user application
	ChunkMinutes float64       // CPU minutes per chunk at reference speed
	MaxNodes     int           // concurrent VMs per user
	Stagger      time.Duration // delay between user submissions
	Horizon      time.Duration // simulation cut-off
}

// DefaultScaleParams returns a compact four-user scenario run at shard
// counts 1, 2 and 4.
func DefaultScaleParams() ScaleParams {
	w := PaperWorld()
	w.Hosts = 20
	w.Users = 4
	return ScaleParams{
		World:        w,
		ShardCounts:  []int{1, 2, 4},
		Budget:       100 * bank.Credit,
		Deadline:     8 * time.Hour,
		SubJobs:      20,
		ChunkMinutes: 15,
		MaxNodes:     10,
		Stagger:      2 * time.Minute,
		Horizon:      24 * time.Hour,
	}
}

// ScaleRow is one shard count's workload outcome.
type ScaleRow struct {
	Shards         int
	JobsDone       int
	JobsTotal      int
	TimeHours      float64 // mean wall time of completed jobs
	CostPerH       float64 // mean credits/hour of completed jobs
	ChargedCredits float64 // total credits charged across all jobs
	MoneyConserved bool    // bank supply unchanged by the run
}

// ScaleResult is the shard-count sweep.
type ScaleResult struct {
	Rows []ScaleRow
}

// RunScale runs the workload once per shard count. Every run builds a fresh
// world from the same seed, so any difference between rows would be the
// shard count's doing.
func RunScale(p ScaleParams) (*ScaleResult, error) {
	if len(p.ShardCounts) == 0 {
		return nil, errors.New("experiment: no shard counts")
	}
	if p.SubJobs <= 0 || p.ChunkMinutes <= 0 || p.MaxNodes <= 0 {
		return nil, errors.New("experiment: bad application shape")
	}
	res := &ScaleResult{}
	for _, shards := range p.ShardCounts {
		row, err := runScaleOnce(p, shards)
		if err != nil {
			return nil, fmt.Errorf("experiment: scale run at %d shards: %w", shards, err)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func runScaleOnce(p ScaleParams, shards int) (ScaleRow, error) {
	cfg := p.World
	cfg.Shards = shards
	w, err := NewWorld(cfg)
	if err != nil {
		return ScaleRow{}, err
	}
	supply := w.Bank.TotalMoney()
	jobs := make([]*agent.Job, len(w.Users))
	var submitErr error
	for i, u := range w.Users {
		i, u := i, u
		if _, err := w.Engine.After(time.Duration(i)*p.Stagger, func() {
			job, err := w.SubmitApp(u, p.Budget, p.Deadline, p.SubJobs, p.ChunkMinutes, p.MaxNodes)
			if err != nil && submitErr == nil {
				submitErr = fmt.Errorf("submitting for %s: %w", u.Name, err)
			}
			jobs[i] = job
		}); err != nil {
			return ScaleRow{}, err
		}
	}
	w.Engine.RunFor(p.Horizon)
	if submitErr != nil {
		return ScaleRow{}, submitErr
	}

	row := ScaleRow{Shards: shards, JobsTotal: len(jobs)}
	done := 0.0
	for _, job := range jobs {
		if job == nil {
			return ScaleRow{}, errors.New("a user never submitted")
		}
		row.ChargedCredits += job.Charged.Credits()
		if job.State == agent.StateDone {
			row.JobsDone++
			done++
			row.TimeHours += job.Duration().Hours()
			row.CostPerH += job.CostRate()
		}
	}
	if done > 0 {
		row.TimeHours /= done
		row.CostPerH /= done
	}
	row.MoneyConserved = w.Bank.TotalMoney() == supply
	return row, nil
}

// String renders the sweep as a table.
func (r *ScaleResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-7s %6s %9s %10s %12s %10s\n",
		"Shards", "Done", "Time(h)", "Cost($/h)", "Charged($)", "Conserved")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-7d %3d/%-3d %9.2f %10.2f %12.2f %10v\n",
			row.Shards, row.JobsDone, row.JobsTotal, row.TimeHours,
			row.CostPerH, row.ChargedCredits, row.MoneyConserved)
	}
	return b.String()
}

// RepSpecScale replicates the shard-count sweep, reporting per shard count
// the completion, timing and conservation metrics.
func RepSpecScale(p ScaleParams) RepSpec {
	var cols []string
	for _, s := range p.ShardCounts {
		for _, m := range []string{"done", "time_h", "cost_per_h", "charged", "conserved"} {
			cols = append(cols, fmt.Sprintf("s%d_%s", s, m))
		}
	}
	return RepSpec{
		Name: "scale",
		Cols: cols,
		Run: func(seed int64) ([]float64, error) {
			q := p
			q.World.Seed = seed
			q.World.Tracer = quietTracer()
			res, err := RunScale(q)
			if err != nil {
				return nil, err
			}
			var out []float64
			for _, row := range res.Rows {
				conserved := 0.0
				if row.MoneyConserved {
					conserved = 1
				}
				out = append(out, float64(row.JobsDone), row.TimeHours,
					row.CostPerH, row.ChargedCredits, conserved)
			}
			return out, nil
		},
	}
}
