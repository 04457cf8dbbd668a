package box

import (
	"fmt"
	"time"

	"tycoongrid/internal/grid"
	"tycoongrid/internal/rng"
)

// Churn makes the world's hosts crash and come back for as long as it runs:
// each host fails after an exponential time with mean MTTF and is repaired
// after one with mean MTTR. The zero Churn is a grid whose hosts never fail.
type Churn struct {
	MTTF time.Duration
	MTTR time.Duration
}

// churnSeed tags the churn stream derived from a world's seed ("churn").
const churnSeed = 0x636875726e

func (c Churn) check() error {
	if c.MTTF < 0 || c.MTTR < 0 || (c.MTTF == 0) != (c.MTTR == 0) {
		return fmt.Errorf("box: churn needs both MTTF and MTTR positive, or neither set; got %v, %v", c.MTTF, c.MTTR)
	}
	return nil
}

// churnHost is one host's crash and repair cycle. Each host draws from its
// own stream, split from the world's churn stream in host order, so a run's
// schedule is replayable from its seed.
type churnHost struct {
	cluster *grid.Cluster
	id      string
	src     *rng.Source
	Churn
}

// start churns every host of cluster from the world seed, for the life of
// the world. It schedules nothing for the zero Churn.
func (c Churn) start(cluster *grid.Cluster, seed int64) {
	if c.MTTF == 0 {
		return
	}
	root := rng.New(rng.DeriveSeed(seed, churnSeed))
	for _, id := range cluster.HostIDs() {
		h := &churnHost{cluster: cluster, id: id, src: root.Split(), Churn: c}
		h.after(h.MTTF, h.crash)
	}
}

// after runs fn an exponential time with the given mean from now. A
// non-negative delay is never in the past, so scheduling cannot fail.
func (h *churnHost) after(mean time.Duration, fn func()) {
	d := time.Duration(h.src.Exponential(1/mean.Seconds()) * float64(time.Second))
	_ = h.cluster.Engine().After(d, fn)
}

func (h *churnHost) crash() {
	if _, err := h.cluster.FailHost(h.id); err != nil {
		// Someone else already failed the host; try again next cycle.
		h.after(h.MTTF, h.crash)
		return
	}
	h.after(h.MTTR, h.repair)
}

func (h *churnHost) repair() {
	_ = h.cluster.RecoverHost(h.id) // fails only if someone else repaired it
	h.after(h.MTTF, h.crash)
}
