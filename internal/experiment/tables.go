package experiment

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"tycoongrid/internal/agent"
	"tycoongrid/internal/bank"
)

// BestResponseParams configures the Table 1 / Table 2 scenario (§5.3): five
// competing users run the same bag-of-tasks application with (possibly)
// different funding, launched in sequence with a slight delay.
type BestResponseParams struct {
	World        WorldConfig
	Budgets      []bank.Amount // one per user; len must equal World.Users
	Deadline     time.Duration // bid deadline (the XRSL walltime)
	SubJobs      int           // chunks per user application
	ChunkMinutes float64       // CPU minutes per chunk at the reference speed
	MaxNodes     int           // XRSL count: concurrent VMs per user
	Stagger      time.Duration // delay between user submissions
	Horizon      time.Duration // simulation cut-off
	// GroupSizes partitions the user rows into report groups, e.g. [2, 3]
	// for the paper's "Users 1-2" / "Users 3-5" rows. Empty means group by
	// equal budgets.
	GroupSizes []int
}

// Table1Params returns the equal-funding scenario defaults.
func Table1Params() BestResponseParams {
	budgets := make([]bank.Amount, 5)
	for i := range budgets {
		budgets[i] = 100 * bank.Credit
	}
	return BestResponseParams{
		World:        PaperWorld(),
		Budgets:      budgets,
		Deadline:     8 * time.Hour,
		SubJobs:      60,
		ChunkMinutes: 25,
		MaxNodes:     15,
		Stagger:      2 * time.Minute,
		Horizon:      48 * time.Hour,
		GroupSizes:   []int{2, 3},
	}
}

// Table2Params returns the two-point funding scenario: 100, 100, 500, 500,
// 500 dollars with a 5.5 hour deadline.
func Table2Params() BestResponseParams {
	p := Table1Params()
	p.Budgets = []bank.Amount{
		100 * bank.Credit, 100 * bank.Credit,
		500 * bank.Credit, 500 * bank.Credit, 500 * bank.Credit,
	}
	p.Deadline = 5*time.Hour + 30*time.Minute
	return p
}

// UserRow is one user's measured outcome (one row of the paper's tables,
// before grouping).
type UserRow struct {
	User       string
	Budget     bank.Amount
	TimeHours  float64 // wall-clock task time
	CostPerH   float64 // credits spent per hour of task time
	LatencyMin float64 // mean sub-job latency, minutes
	Nodes      float64 // distinct hosts used
	Completed  int
	Total      int
}

// GroupRow aggregates users with identical funding, like the paper's
// "Users 1-2" / "Users 3-5" rows.
type GroupRow struct {
	Label      string
	Budget     bank.Amount
	TimeHours  float64
	CostPerH   float64
	LatencyMin float64
	Nodes      float64
}

// TableResult is the harness output for Table 1 or Table 2.
type TableResult struct {
	Rows   []UserRow
	Groups []GroupRow
}

// RunBestResponseTable runs the competing-users scenario.
func RunBestResponseTable(p BestResponseParams) (*TableResult, error) {
	if len(p.Budgets) != p.World.Users {
		return nil, fmt.Errorf("experiment: %d budgets for %d users", len(p.Budgets), p.World.Users)
	}
	if p.SubJobs <= 0 || p.ChunkMinutes <= 0 || p.MaxNodes <= 0 {
		return nil, errors.New("experiment: bad application shape")
	}
	w, err := NewWorld(p.World)
	if err != nil {
		return nil, err
	}
	jobs := make([]*agent.Job, len(w.Users))
	var submitErr error
	for i, u := range w.Users {
		i, u := i, u
		delay := time.Duration(i) * p.Stagger
		if err := w.Engine.After(delay, func() {
			job, err := w.SubmitApp(u, p.Budgets[i], p.Deadline, p.SubJobs, p.ChunkMinutes, p.MaxNodes)
			if err != nil && submitErr == nil {
				submitErr = fmt.Errorf("experiment: submitting for %s: %w", u.Name, err)
			}
			jobs[i] = job
		}); err != nil {
			return nil, err
		}
	}
	w.Engine.RunFor(p.Horizon)
	if submitErr != nil {
		return nil, submitErr
	}

	res := &TableResult{}
	for i, job := range jobs {
		if job == nil {
			return nil, fmt.Errorf("experiment: user %d never submitted", i+1)
		}
		row := UserRow{
			User:      w.Users[i].Name,
			Budget:    p.Budgets[i],
			Completed: job.Completed(),
			Total:     job.Total(),
		}
		if job.State == agent.StateDone {
			row.TimeHours = job.Duration().Hours()
			row.CostPerH = job.CostRate()
			row.LatencyMin = job.MeanLatency().Minutes()
			row.Nodes = float64(job.NodesUsed())
		}
		res.Rows = append(res.Rows, row)
	}
	res.Groups = groupRows(res.Rows, p.GroupSizes)
	return res, nil
}

// groupRows merges consecutive user rows. With explicit sizes the rows are
// partitioned accordingly; otherwise users with equal budgets are merged.
func groupRows(rows []UserRow, sizes []int) []GroupRow {
	var out []GroupRow
	i := 0
	k := 0
	for i < len(rows) {
		j := i
		if k < len(sizes) {
			j = i + sizes[k]
			if j > len(rows) {
				j = len(rows)
			}
			k++
		} else {
			for j < len(rows) && rows[j].Budget == rows[i].Budget {
				j++
			}
		}
		g := GroupRow{Budget: rows[i].Budget}
		if j-i == 1 {
			g.Label = fmt.Sprintf("%d", i+1)
		} else {
			g.Label = fmt.Sprintf("%d-%d", i+1, j)
		}
		n := float64(j - i)
		for _, r := range rows[i:j] {
			g.TimeHours += r.TimeHours / n
			g.CostPerH += r.CostPerH / n
			g.LatencyMin += r.LatencyMin / n
			g.Nodes += r.Nodes / n
		}
		out = append(out, g)
		i = j
	}
	return out
}

// String renders the result like the paper's tables.
func (r *TableResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %9s %9s %9s %14s %7s\n",
		"Users", "Budget($)", "Time(h)", "Cost($/h)", "Latency(min/j)", "Nodes")
	for _, g := range r.Groups {
		fmt.Fprintf(&b, "%-8s %9s %9.2f %9.2f %14.2f %7.1f\n",
			g.Label, g.Budget, g.TimeHours, g.CostPerH, g.LatencyMin, g.Nodes)
	}
	return b.String()
}
