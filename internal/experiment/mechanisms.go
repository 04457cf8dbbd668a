package experiment

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"tycoongrid/internal/agent"
	"tycoongrid/internal/bank"
	"tycoongrid/internal/mechanism"
	"tycoongrid/internal/rng"
	"tycoongrid/internal/sla"
)

// MechanismsParams configures the mechanism-comparison family: the same
// competing-users workload run once per clearing rule (proportional share,
// posted price, VCG), plus a market-level probe that measures allocative
// welfare and the incentive to misreport under each rule. Every mechanism
// sees the same seed, so per-seed differences are attributable to the
// clearing rule alone (paired comparison).
type MechanismsParams struct {
	World      WorldConfig
	Mechanisms []string // clearing rules to compare; default mechanism.Names()

	// Full-stack workload shape.
	Budget       bank.Amount
	Deadline     time.Duration
	SubJobs      int
	ChunkMinutes float64
	MaxNodes     int
	Stagger      time.Duration
	Horizon      time.Duration

	// Probe shape: ProbeProfiles random valuation profiles per run, each
	// deviated ProbeDeviations times to estimate the truthfulness incentive.
	ProbeProfiles   int
	ProbeDeviations int
}

// DefaultMechanismsParams returns a compact three-user scenario over all
// registered mechanisms.
func DefaultMechanismsParams() MechanismsParams {
	w := PaperWorld()
	w.Hosts = 12
	w.Users = 3
	return MechanismsParams{
		World:           w,
		Mechanisms:      mechanism.Names(),
		Budget:          100 * bank.Credit,
		Deadline:        8 * time.Hour,
		SubJobs:         10,
		ChunkMinutes:    10,
		MaxNodes:        6,
		Stagger:         2 * time.Minute,
		Horizon:         12 * time.Hour,
		ProbeProfiles:   40,
		ProbeDeviations: 4,
	}
}

// MechanismRow is one clearing rule's outcome.
type MechanismRow struct {
	Mechanism      string
	JobsDone       int
	JobsTotal      int
	CostPerJob     float64 // mean credits charged per completed job
	ChargedCredits float64 // total credits charged across all jobs
	MoneyConserved bool    // bank supply unchanged by the run

	// Probe metrics, in credits/second over the profile population.
	Welfare   float64 // mean truthful-report welfare sum(V_i(q_i))
	TruthGain float64 // mean positive utility gain from misreporting (0 = truthful)
}

// MechanismsResult is the per-mechanism sweep.
type MechanismsResult struct {
	Rows []MechanismRow
}

// RunMechanisms runs the workload and the probe once per mechanism. Every
// run builds a fresh world from the same seed, so differences between rows
// are attributable to the clearing rule alone.
func RunMechanisms(p MechanismsParams) (*MechanismsResult, error) {
	if len(p.Mechanisms) == 0 {
		return nil, errors.New("experiment: no mechanisms")
	}
	if p.SubJobs <= 0 || p.ChunkMinutes <= 0 || p.MaxNodes <= 0 {
		return nil, errors.New("experiment: bad application shape")
	}
	res := &MechanismsResult{}
	for _, name := range p.Mechanisms {
		row, err := runMechanismOnce(p, name)
		if err != nil {
			return nil, fmt.Errorf("experiment: mechanisms run %q: %w", name, err)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func runMechanismOnce(p MechanismsParams, name string) (MechanismRow, error) {
	cfg := p.World
	cfg.Mechanism = name
	w, err := NewWorld(cfg)
	if err != nil {
		return MechanismRow{}, err
	}
	supply := w.Bank.TotalMoney()
	jobs := make([]*agent.Job, len(w.Users))
	var submitErr error
	for i, u := range w.Users {
		i, u := i, u
		if err := w.Engine.After(time.Duration(i)*p.Stagger, func() {
			job, err := w.SubmitApp(u, p.Budget, p.Deadline, p.SubJobs, p.ChunkMinutes, p.MaxNodes)
			if err != nil && submitErr == nil {
				submitErr = fmt.Errorf("submitting for %s: %w", u.Name, err)
			}
			jobs[i] = job
		}); err != nil {
			return MechanismRow{}, err
		}
	}
	w.Engine.RunFor(p.Horizon)
	if submitErr != nil {
		return MechanismRow{}, submitErr
	}

	row := MechanismRow{Mechanism: name, JobsTotal: len(jobs)}
	for _, job := range jobs {
		if job == nil {
			return MechanismRow{}, errors.New("a user never submitted")
		}
		row.ChargedCredits += job.Charged.Credits()
		if job.State == agent.StateDone {
			row.JobsDone++
			row.CostPerJob += job.Charged.Credits()
		}
	}
	if row.JobsDone > 0 {
		row.CostPerJob /= float64(row.JobsDone)
	}
	row.MoneyConserved = w.Bank.TotalMoney() == supply

	row.Welfare, row.TruthGain, err = probeMechanism(p, name)
	return row, err
}

// probeMechanism measures, over seeded random concave valuation profiles,
// the allocative welfare of truthful reporting and the mean positive utility
// a bidder can gain by misreporting (scaling its reported valuation and
// spend rate). Under VCG the gain is zero by construction; under
// proportional share and posted price it quantifies how much the rule
// rewards strategic bidding — the truthfulness-incentive column of the
// mechanisms table.
func probeMechanism(p MechanismsParams, name string) (welfare, truthGain float64, err error) {
	const capMHz = 3000.0
	capacity := mechanism.Capacity{MHz: capMHz, Reserve: p.World.ReservePrice}
	src := rng.New(rng.DeriveSeed(p.World.Seed, 0x6d656368)) // "mech"
	profiles := p.ProbeProfiles
	if profiles <= 0 {
		profiles = 40
	}
	deviations := p.ProbeDeviations
	if deviations <= 0 {
		deviations = 4
	}
	var gains, gainCount float64
	for profile := 0; profile < profiles; profile++ {
		n := 2 + src.Intn(4)
		vals := make([]sla.Valuation, n)
		bids := make([]mechanism.Bid, n)
		for i := 0; i < n; i++ {
			vals[i] = sla.RandomValuation(src, capMHz)
			bids[i] = mechanism.Bid{
				Bidder:    fmt.Sprintf("u%02d", i),
				Rate:      vals[i].ValueRate(capMHz),
				Valuation: &vals[i],
			}
		}
		mech, err := mechanism.New(name, mechanism.Config{})
		if err != nil {
			return 0, 0, err
		}
		truthful := mech.Quote(bids, capacity)
		for i := 0; i < n; i++ {
			l, _ := truthful.Line(bids[i].Bidder)
			welfare += vals[i].ValueRate(l.Fraction * capMHz)
		}

		for d := 0; d < deviations; d++ {
			i := src.Intn(n)
			factor := src.Uniform(0.2, 3)
			lie := vals[i].Scale(factor)
			deviated := make([]mechanism.Bid, n)
			copy(deviated, bids)
			deviated[i].Rate = bids[i].Rate * factor
			deviated[i].Valuation = &lie
			devOut := mech.Quote(deviated, capacity)

			tl, _ := truthful.Line(bids[i].Bidder)
			dl, _ := devOut.Line(bids[i].Bidder)
			baseUtil := vals[i].ValueRate(tl.Fraction*capMHz) - tl.PayRate
			devUtil := vals[i].ValueRate(dl.Fraction*capMHz) - dl.PayRate
			if gain := devUtil - baseUtil; gain > 1e-9 {
				gains += gain
			}
			gainCount++
		}
	}
	welfare /= float64(profiles)
	if gainCount > 0 {
		truthGain = gains / gainCount
	}
	return welfare, truthGain, nil
}

// String renders the sweep as a table.
func (r *MechanismsResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-13s %6s %12s %12s %12s %12s %10s\n",
		"Mechanism", "Done", "Cost/job($)", "Charged($)", "Welfare($/s)", "TruthGain", "Conserved")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-13s %3d/%-3d %12.3f %12.2f %12.6f %12.2e %10v\n",
			row.Mechanism, row.JobsDone, row.JobsTotal, row.CostPerJob,
			row.ChargedCredits, row.Welfare, row.TruthGain, row.MoneyConserved)
	}
	return b.String()
}
