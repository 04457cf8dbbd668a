// Package experiment contains one harness per table and figure of the
// paper's evaluation (§5). Each harness asks internal/box for the full
// grid-market stack — bank, PKI, per-host auctions, VM managers, the
// ARC-analog job manager and the best-response agent — inside the
// discrete-event simulator, runs the paper's scenario, and reports rows
// shaped like the paper's artifact.
// See DESIGN.md §4 for the experiment index and expected shapes.
package experiment

import (
	"time"

	"tycoongrid/internal/agent"
	"tycoongrid/internal/bank"
	"tycoongrid/internal/box"
	"tycoongrid/internal/trace"
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
		MaxVMsPerCPU: 15,
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

// recordPrices attaches an unbounded trace.Recorder series to every host
// market, for the experiments that read a whole run's prices afterwards
// (RunLoad, the strategies volatility column); no other world keeps one.
func (w *World) recordPrices() (*trace.Recorder, error) {
	rec := trace.NewRecorder()
	for _, id := range w.Cluster.HostIDs() {
		h, err := w.Cluster.Host(id)
		if err != nil {
			return nil, err
		}
		h.Market.Observe(rec.Observer(id))
	}
	return rec, nil
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
		JobName:     "proteome-scan-" + u.Name,
		Executable:  "scan.sh",
		Count:       maxNodes,
		WallTime:    deadline,
		RuntimeEnvs: []string{"APPS/BIO/BLAST-2.0"},
	}
	chunks := make([]float64, subJobs)
	for i := range chunks {
		chunks[i] = chunkMinutes * 60 * workload.ReferenceMHz
	}
	return w.Agent.Submit(tok, jr, chunks)
}
