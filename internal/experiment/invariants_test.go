package experiment

import (
	"strings"
	"testing"
	"testing/quick"
	"time"

	"tycoongrid/internal/bank"
	"tycoongrid/internal/mechanism"
	"tycoongrid/internal/tracing"
)

// TestMoneyConservedAcrossRandomWorkloads is the repository's end-to-end
// economic invariant: across arbitrary random market activity — submissions,
// competition, boosts implied by batch waves, completions, refunds — the
// total money in the bank equals exactly what was deposited. No operation
// may mint or destroy a microcredit.
func TestMoneyConservedAcrossRandomWorkloads(t *testing.T) {
	f := func(seed int64, batch bool) bool {
		p := DefaultLoadParams()
		p.World.Seed = seed
		p.World.Hosts = 4
		p.World.Users = 4
		p.Hours = 8
		p.MeanInterarrival = 20 * time.Minute
		if batch {
			p.BatchPeriod = 3 * time.Hour
			p.BatchJobs = 2
		}
		res, err := RunLoad(p)
		if err != nil {
			return false
		}
		deposited := bank.Amount(p.World.Users) * p.World.GrantPerUser
		return res.World.Bank.TotalMoney() == deposited
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

// TestInvariantsAcrossReplications pushes the economic invariants through
// the replication runner: every independently-seeded copy of the ablation
// workloads must conserve the bank's total money, finish with every broker
// escrow sub-account drained, and never drive an account negative — with the
// worlds running concurrently on the worker pool.
func TestInvariantsAcrossReplications(t *testing.T) {
	// Ablation A workload: the market side of the scheduler comparison,
	// run to completion so escrow must be fully unwound.
	table := shrunkTableParams()
	tableSpec := probe("invariants-ablation-scheduler",
		[]string{"money_delta", "undrained_subaccounts", "negative_accounts"},
		func(seed int64, tr *tracing.Tracer) ([]float64, error) {
			p := table
			p.World.Seed, p.World.Tracer = seed, tr
			w, err := NewWorld(p.World)
			if err != nil {
				return nil, err
			}
			for i, u := range w.Users {
				if _, err := w.SubmitApp(u, p.Budgets[i], p.Deadline, p.SubJobs, p.ChunkMinutes, p.MaxNodes); err != nil {
					return nil, err
				}
			}
			w.Engine.RunFor(p.Horizon)
			deposited := bank.Amount(p.World.Users) * p.World.GrantPerUser
			delta := float64(w.Bank.TotalMoney() - deposited)
			var undrained, negative float64
			for _, id := range w.Bank.Accounts() {
				a, err := w.Bank.Lookup(id)
				if err != nil {
					return nil, err
				}
				if a.Parent == "broker" && a.Balance != 0 {
					undrained++
				}
				if a.Balance < 0 {
					negative++
				}
			}
			return []float64{delta, undrained, negative}, nil
		})
	// Ablation C workload: the load scenario behind the smoothing ablation.
	// Jobs may still be in flight at the horizon, so escrow can legitimately
	// hold money — assert conservation and non-negativity only.
	load := shrunkFigure4Params().Load
	loadSpec := probe("invariants-ablation-smoothing",
		[]string{"money_delta", "negative_accounts"},
		func(seed int64, tr *tracing.Tracer) ([]float64, error) {
			p := load
			p.World.Seed, p.World.Tracer = seed, tr
			res, err := RunLoad(p)
			if err != nil {
				return nil, err
			}
			deposited := bank.Amount(p.World.Users) * p.World.GrantPerUser
			delta := float64(res.World.Bank.TotalMoney() - deposited)
			var negative float64
			for _, id := range res.World.Bank.Accounts() {
				a, err := res.World.Bank.Lookup(id)
				if err != nil {
					return nil, err
				}
				if a.Balance < 0 {
					negative++
				}
			}
			return []float64{delta, negative}, nil
		})
	// Mechanism workloads: the ablation-scheduler invariants must hold no
	// matter which clearing rule the host markets run — posted price and VCG
	// charge differently from proportional share, but none may mint, burn or
	// strand a microcredit.
	mechSpecs := make([]Experiment, 0, len(mechanism.Names()))
	for _, mechName := range mechanism.Names() {
		mechName := mechName
		mechSpecs = append(mechSpecs, probe("invariants-mechanism-"+mechName,
			[]string{"money_delta", "undrained_subaccounts", "negative_accounts"},
			func(seed int64, tr *tracing.Tracer) ([]float64, error) {
				p := table
				p.World.Seed, p.World.Tracer = seed, tr
				p.World.Mechanism = mechName
				w, err := NewWorld(p.World)
				if err != nil {
					return nil, err
				}
				for i, u := range w.Users {
					if _, err := w.SubmitApp(u, p.Budgets[i], p.Deadline, p.SubJobs, p.ChunkMinutes, p.MaxNodes); err != nil {
						return nil, err
					}
				}
				w.Engine.RunFor(p.Horizon)
				deposited := bank.Amount(p.World.Users) * p.World.GrantPerUser
				delta := float64(w.Bank.TotalMoney() - deposited)
				var undrained, negative float64
				for _, id := range w.Bank.Accounts() {
					a, err := w.Bank.Lookup(id)
					if err != nil {
						return nil, err
					}
					if a.Parent == "broker" && a.Balance != 0 {
						undrained++
					}
					if a.Balance < 0 {
						negative++
					}
				}
				return []float64{delta, undrained, negative}, nil
			}))
	}

	for _, spec := range append([]Experiment{tableSpec, loadSpec}, mechSpecs...) {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			agg, err := Replicate(spec, ReplicationConfig{Reps: 4, Parallel: 4, BaseSeed: 2006})
			if err != nil {
				t.Fatal(err)
			}
			for i, rep := range agg.PerRep {
				for c, v := range rep {
					if v != 0 {
						t.Errorf("replication %d (seed %d): %s = %v, want 0",
							i, agg.Seeds[i], agg.Cols[c], v)
					}
				}
			}
		})
	}
}

// TestMechanismsFamilyConservation runs the mechanisms experiment family
// end-to-end and asserts TotalMoney conservation held in every replication
// under every clearing rule — the per-mechanism `conserved` column must be
// exactly 1 for each rep.
func TestMechanismsFamilyConservation(t *testing.T) {
	p := DefaultMechanismsParams()
	p.ProbeProfiles = 5 // conservation lives in the full-stack run, keep the probe cheap
	agg, err := Replicate(Mechanisms(p), ReplicationConfig{Reps: 3, Parallel: 3, BaseSeed: 2006})
	if err != nil {
		t.Fatal(err)
	}
	for c, col := range agg.Cols {
		if !strings.HasSuffix(col, "_conserved") {
			continue
		}
		for i, rep := range agg.PerRep {
			if rep[c] != 1 {
				t.Errorf("replication %d (seed %d): %s = %v, want 1 (money not conserved)",
					i, agg.Seeds[i], col, rep[c])
			}
		}
	}
}

// TestAllBudgetsAccountedFor checks the finer-grained flow on a completed
// Table run: every user's spend equals charges to hosts plus refunds held at
// the broker.
func TestAllBudgetsAccountedFor(t *testing.T) {
	p := Table2Params()
	p.SubJobs = 20
	w, err := NewWorld(p.World)
	if err != nil {
		t.Fatal(err)
	}
	var totalBudget bank.Amount
	for i, u := range w.Users {
		if _, err := w.SubmitApp(u, p.Budgets[i], p.Deadline, p.SubJobs, p.ChunkMinutes, p.MaxNodes); err != nil {
			t.Fatal(err)
		}
		totalBudget += p.Budgets[i]
	}
	w.Engine.RunFor(p.Horizon)

	earnings, err := w.Bank.Balance("grid-earnings")
	if err != nil {
		t.Fatal(err)
	}
	broker, err := w.Bank.Balance("broker")
	if err != nil {
		t.Fatal(err)
	}
	if earnings+broker != totalBudget {
		t.Errorf("earnings %v + broker refunds %v != total budgets %v",
			earnings, broker, totalBudget)
	}
	// Every sub-account drained.
	for _, id := range w.Bank.Accounts() {
		a, err := w.Bank.Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		if a.Parent == "broker" && a.Balance != 0 {
			t.Errorf("sub-account %s still holds %v", id, a.Balance)
		}
		if a.Balance < 0 {
			t.Errorf("account %s is negative: %v", id, a.Balance)
		}
	}
}
