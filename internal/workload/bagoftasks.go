package workload

import (
	"fmt"
	"time"
)

// Chunk is one partition of the proteome database: the unit of parallel
// work. In the paper one chunk takes about 212 minutes on a single node at a
// 100% CPU share.
type Chunk struct {
	Proteins []Protein
	// WorkMHzSec is the chunk's CPU cost in MHz-seconds; the simulation
	// divides it by the delivered MHz to get wall-clock time.
	WorkMHzSec float64
}

// ReferenceMHz is the CPU speed the paper's 212-minute chunk time refers to
// (the testbed's nodes).
const ReferenceMHz = 2800.0

// PaperChunkDuration is the paper's per-chunk analysis time at a 100% share.
const PaperChunkDuration = 212 * time.Minute

// Chunks partitions proteins into n chunks of near-equal residue mass and
// assigns each the CPU cost of perChunk at ReferenceMHz.
func Chunks(proteins []Protein, n int, perChunk time.Duration) ([]Chunk, error) {
	if n <= 0 {
		return nil, fmt.Errorf("workload: chunk count %d, want > 0", n)
	}
	if perChunk <= 0 {
		return nil, fmt.Errorf("workload: per-chunk duration %v, want > 0", perChunk)
	}
	out := make([]Chunk, n)
	for i := range out {
		out[i] = Chunk{WorkMHzSec: perChunk.Seconds() * ReferenceMHz}
	}
	// Greedy residue balancing: biggest protein to lightest chunk.
	mass := make([]int, n)
	for _, p := range sortByLenDesc(proteins) {
		j := 0
		for k := 1; k < n; k++ {
			if mass[k] < mass[j] {
				j = k
			}
		}
		out[j].Proteins = append(out[j].Proteins, p)
		mass[j] += len(p.Seq)
	}
	return out, nil
}

func sortByLenDesc(ps []Protein) []Protein {
	out := make([]Protein, len(ps))
	copy(out, ps)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && len(out[j].Seq) > len(out[j-1].Seq); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Application describes one user's grid run of the proteome scan, shaped
// like the paper's experiment: a task of many sub-jobs, each a chunk.
type Application struct {
	Chunks []Chunk
}

// NewApplication builds the paper-shaped run: nChunks sub-jobs of perChunk
// CPU time each.
func NewApplication(nChunks int, perChunk time.Duration) (*Application, error) {
	chunks, err := Chunks(nil, nChunks, perChunk)
	if err != nil {
		return nil, err
	}
	return &Application{Chunks: chunks}, nil
}

// TotalWork returns the application's aggregate CPU demand in MHz-seconds.
func (a *Application) TotalWork() float64 {
	var s float64
	for _, c := range a.Chunks {
		s += c.WorkMHzSec
	}
	return s
}

// IdealDuration is the run time on `nodes` dedicated ReferenceMHz CPUs with
// perfect packing — the lower bound the paper quotes ("with 30 physical
// machines we can thus achieve a maximum performance of 35 hours/run").
func (a *Application) IdealDuration(nodes int) time.Duration {
	if nodes <= 0 {
		return 0
	}
	perNode := a.TotalWork() / float64(nodes) / ReferenceMHz
	// Packing granularity: runs complete in whole waves of chunks.
	waves := (len(a.Chunks) + nodes - 1) / nodes
	wave := a.Chunks[0].WorkMHzSec / ReferenceMHz
	ideal := float64(waves) * wave
	if perNode > ideal {
		ideal = perNode
	}
	return time.Duration(ideal * float64(time.Second))
}
