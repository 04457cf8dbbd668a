// Package experiment contains one harness per table and figure of the
// paper's evaluation (§5). Each harness asks internal/box for the full
// grid-market stack — bank, PKI, per-host auctions, VM managers, the
// ARC-analog job manager and the best-response agent — inside the
// discrete-event simulator, runs the paper's scenario, and reports rows
// shaped like the paper's artifact.
// See DESIGN.md §4 for the experiment index and expected shapes.
package experiment

import (
	"fmt"
	"time"

	"tycoongrid/internal/agent"
	"tycoongrid/internal/bank"
	"tycoongrid/internal/box"
	"tycoongrid/internal/tsdb"
	"tycoongrid/internal/workload"
	"tycoongrid/internal/xrsl"
)

// World is the testbed every experiment stands on: the world box assembles —
// engine, PKI, bank and broker account, started cluster, funded users, one
// agent, or partitioned agents under a meta-scheduler — plus the paper's
// application on top.
type World struct{ *box.Box }

// GridUser is one simulated grid user with a bank account and identity.
type GridUser = box.User

// WorldConfig shapes the testbed.
type WorldConfig = box.Config

// PaperWorld returns the paper's §5.2 setup: 30 dual-processor hosts, five
// competing users.
func PaperWorld() WorldConfig {
	return WorldConfig{
		Hosts:        30,
		CPUsPerHost:  2,
		CPUMHz:       2800,
		Users:        5,
		GrantPerUser: 100000 * bank.Credit,
		ReservePrice: 1.0 / 3600, // one credit/hour baseline
		Seed:         2006,
	}
}

// NewWorld assembles the world cfg describes.
func NewWorld(cfg WorldConfig) (*World, error) {
	b, err := box.New(cfg)
	if err != nil {
		return nil, err
	}
	return &World{b}, nil
}

// holdRun raises every host market's price ring to one sample per
// Cluster.Interval() of run, for RunLoad, which reads and prints a whole
// run's prices afterwards. Read a host's ring after Cluster.Sync of that
// host.
func (w *World) holdRun(run time.Duration) error {
	ticks := int(run / w.Cluster.Interval())
	if ticks < 1 {
		return fmt.Errorf("experiment: a %v run holds no market tick", run)
	}
	for _, id := range w.Cluster.HostIDs() {
		w.history(id, ticks)
	}
	return nil
}

// history asks host's market for its price ring with room for capacity
// samples (0 only looks); nil for a host the world does not have.
func (w *World) history(host string, capacity int) *tsdb.Ring {
	if h, err := w.Cluster.Host(host); err == nil {
		return h.Market.History(capacity)
	}
	return nil
}

// checkRun fails a run whose trace lost a sample, one a host's ring refused
// or had no room for: it is never truncated silently. Each ring counts its
// own, so replications running side by side do not see each other's.
func (w *World) checkRun() error { return w.checkTrace((*tsdb.Ring).Lost) }

// checkRefused fails a run whose trace a host's ring refused a sample of,
// for a world whose rings hold a window rather than the run: a ring pushes
// old samples out, and its reader checks that the window it reads is still
// held (tsdb.Ring.HoldsAfter).
func (w *World) checkRefused() error { return w.checkTrace((*tsdb.Ring).Dropped) }

// checkTrace fails the run if lost counts a sample on any host's ring.
func (w *World) checkTrace(lost func(*tsdb.Ring) uint64) error {
	var n uint64
	for _, id := range w.Cluster.HostIDs() {
		if ring := w.history(id, 0); ring != nil {
			n += lost(ring)
		}
	}
	if n > 0 {
		return fmt.Errorf("experiment: the run's price trace refused %d samples", n)
	}
	return nil
}

// SubmitApp submits the paper's bioinformatics application for user u:
// subJobs chunks of chunkMinutes CPU time each, on at most maxNodes
// concurrent VMs, funded with budget until deadline.
func (w *World) SubmitApp(u *GridUser, budget bank.Amount, deadline time.Duration,
	subJobs int, chunkMinutes float64, maxNodes int) (*agent.Job, error) {
	tok, err := w.MintToken(u, budget)
	if err != nil {
		return nil, err
	}
	jr := &xrsl.JobRequest{
		JobName:    "proteome-scan-" + u.Name,
		Executable: "scan.sh",
		Count:      maxNodes,
		WallTime:   deadline,
	}
	chunks := make([]float64, subJobs)
	for i := range chunks {
		chunks[i] = chunkMinutes * 60 * workload.ReferenceMHz
	}
	return w.Agent.Submit(tok, jr, chunks)
}
