// Package chaos churns the simulated grid's hosts and holds the end-to-end
// fault-tolerance test of the grid market. The Injector schedules host
// crashes and recoveries on the sim.Engine (exponential MTTF/MTTR, one
// independent seeded stream per host), so every churned run is replayable
// bit-for-bit. The test runs a full bank + cluster + agent + ARC stack under
// continuous churn from it; `go test ./internal/chaos` (and the `make chaos`
// target) address it directly.
//
// The test is deterministic: host crash/recovery times come from a seeded
// injector, selectable with `-chaos.seed` (default 1), e.g.
//
//	go test -race ./internal/chaos -args -chaos.seed=7
//
// Its invariants are the whole point of the fault-tolerance layer: with at
// least 20% of hosts failing during the run, every submitted job still
// reaches a terminal state (finished, or failed with its unspent budget
// refunded), every job sub-account drains to zero, and the bank's total
// money supply is exactly conserved.
package chaos

import (
	"errors"
	"fmt"
	"time"

	"tycoongrid/internal/grid"
	"tycoongrid/internal/rng"
	"tycoongrid/internal/sim"
)

// Injector defaults: hosts crash on average every 30 minutes of simulated
// time and stay down for an average of 2 minutes.
const (
	DefaultMTTF = 30 * time.Minute
	DefaultMTTR = 2 * time.Minute
)

// InjectorConfig tunes host churn.
type InjectorConfig struct {
	// Seed feeds the per-host random streams; runs with equal seeds and
	// equal host sets produce identical failure schedules.
	Seed int64
	// MTTF is the mean time to failure of each host (exponential).
	MTTF time.Duration
	// MTTR is the mean time to repair after a crash (exponential).
	MTTR time.Duration
	// Hosts restricts churn to a subset of host IDs; nil means every host
	// in the cluster.
	Hosts []string
}

// Injector schedules crash/recover cycles for a cluster's hosts. It is
// single-threaded like the engine it runs on; not safe for concurrent use.
type Injector struct {
	engine  *sim.Engine
	cluster *grid.Cluster
	cfg     InjectorConfig

	hosts   []string
	streams map[string]*rng.Source
	pending map[string]sim.Handle
	running bool

	failures   int
	recoveries int
}

// NewInjector builds an injector for cluster. Each host gets an independent
// random stream derived from cfg.Seed in sorted host order, so adding hosts
// does not perturb the schedules of existing ones.
func NewInjector(cluster *grid.Cluster, cfg InjectorConfig) (*Injector, error) {
	if cluster == nil {
		return nil, errors.New("chaos: nil cluster")
	}
	if cfg.MTTF <= 0 {
		cfg.MTTF = DefaultMTTF
	}
	if cfg.MTTR <= 0 {
		cfg.MTTR = DefaultMTTR
	}
	hosts := cfg.Hosts
	if hosts == nil {
		hosts = cluster.HostIDs()
	}
	if len(hosts) == 0 {
		return nil, errors.New("chaos: no hosts to churn")
	}
	root := rng.New(cfg.Seed)
	inj := &Injector{
		engine:  cluster.Engine(),
		cluster: cluster,
		cfg:     cfg,
		hosts:   hosts,
		streams: make(map[string]*rng.Source, len(hosts)),
		pending: make(map[string]sim.Handle, len(hosts)),
	}
	for _, id := range hosts {
		if _, err := cluster.Host(id); err != nil {
			return nil, fmt.Errorf("chaos: %w", err)
		}
		inj.streams[id] = root.Split()
	}
	return inj, nil
}

// Start schedules the first crash of every churned host.
func (inj *Injector) Start() error {
	if inj.running {
		return errors.New("chaos: injector already started")
	}
	inj.running = true
	for _, id := range inj.hosts {
		inj.scheduleCrash(id)
	}
	return nil
}

// Stop cancels all pending crash/recovery events. Hosts currently down stay
// down; call grid.Cluster.RecoverHost to heal them.
func (inj *Injector) Stop() {
	if !inj.running {
		return
	}
	inj.running = false
	for id, h := range inj.pending {
		h.Cancel()
		delete(inj.pending, id)
	}
}

// Failures returns how many crashes the injector has executed.
func (inj *Injector) Failures() int { return inj.failures }

// Recoveries returns how many repairs the injector has executed.
func (inj *Injector) Recoveries() int { return inj.recoveries }

func (inj *Injector) draw(id string, mean time.Duration) time.Duration {
	secs := inj.streams[id].Exponential(1 / mean.Seconds())
	return time.Duration(secs * float64(time.Second))
}

func (inj *Injector) scheduleCrash(id string) {
	ttf := inj.draw(id, inj.cfg.MTTF)
	h, err := inj.engine.After(ttf, func() {
		delete(inj.pending, id)
		if !inj.running {
			return
		}
		if _, err := inj.cluster.FailHost(id); err != nil {
			// Someone else already failed the host; try again next cycle.
			inj.scheduleCrash(id)
			return
		}
		inj.failures++
		inj.scheduleRecovery(id)
	})
	if err == nil {
		inj.pending[id] = h
	}
}

func (inj *Injector) scheduleRecovery(id string) {
	ttr := inj.draw(id, inj.cfg.MTTR)
	h, err := inj.engine.After(ttr, func() {
		delete(inj.pending, id)
		if !inj.running {
			return
		}
		if err := inj.cluster.RecoverHost(id); err == nil {
			inj.recoveries++
		}
		inj.scheduleCrash(id)
	})
	if err == nil {
		inj.pending[id] = h
	}
}
