package experiment

import (
	"testing"
	"time"

	"tycoongrid/internal/bank"
)

func smallScaleParams() ScaleParams {
	w := PaperWorld()
	w.Hosts = 8
	w.Users = 2
	w.Seed = 77
	return ScaleParams{
		World:        w,
		ShardCounts:  []int{1, 3},
		Budget:       50 * bank.Credit,
		Deadline:     4 * time.Hour,
		SubJobs:      6,
		ChunkMinutes: 5,
		MaxNodes:     4,
		Stagger:      time.Minute,
		Horizon:      8 * time.Hour,
	}
}

func TestRunScale(t *testing.T) {
	p := smallScaleParams()
	res, err := RunScale(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	for _, row := range res.Rows {
		if !row.MoneyConserved {
			t.Fatalf("shards=%d: money not conserved", row.Shards)
		}
		if row.JobsDone != row.JobsTotal {
			t.Fatalf("shards=%d: %d/%d jobs done", row.Shards, row.JobsDone, row.JobsTotal)
		}
		if row.ChargedCredits <= 0 {
			t.Fatalf("shards=%d: nothing charged", row.Shards)
		}
	}
	if res.String() == "" {
		t.Fatal("empty rendering")
	}
}

// The replication guarantee survives sharding being wired in: a 1-shard
// scale experiment replicated 4 times renders byte-identically whether the
// worker pool has 1 or 2 workers.
func TestScaleReplicationByteIdentical(t *testing.T) {
	p := smallScaleParams()
	p.ShardCounts = []int{1}
	spec := RepSpecScale(p)
	run := func(parallel int) string {
		agg, err := Replicate(spec, ReplicationConfig{Reps: 4, Parallel: parallel, BaseSeed: 42})
		if err != nil {
			t.Fatal(err)
		}
		sum, err := agg.SummaryCSV()
		if err != nil {
			t.Fatal(err)
		}
		per, err := agg.PerRepCSV()
		if err != nil {
			t.Fatal(err)
		}
		return agg.String() + string(sum) + string(per)
	}
	serial := run(1)
	concurrent := run(2)
	if serial != concurrent {
		t.Fatalf("parallel=1 and parallel=2 outputs differ:\n%s\n---\n%s", serial, concurrent)
	}
}
