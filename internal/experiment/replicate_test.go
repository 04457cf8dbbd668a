package experiment

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"tycoongrid/internal/bank"
	"tycoongrid/internal/tracing"
)

// shrunkTableParams is a small best-response scenario: three users on six
// hosts, two funding levels, finishing well inside a 6 h horizon.
func shrunkTableParams() BestResponseParams {
	w := PaperWorld()
	w.Hosts = 6
	w.Users = 3
	return BestResponseParams{
		World:        w,
		Budgets:      []bank.Amount{100 * bank.Credit, 100 * bank.Credit, 500 * bank.Credit},
		Deadline:     4 * time.Hour,
		SubJobs:      6,
		ChunkMinutes: 5,
		MaxNodes:     4,
		Stagger:      2 * time.Minute,
		Horizon:      6 * time.Hour,
		GroupSizes:   []int{2, 1},
	}
}

// shrunkLoadParams is a light market: four hosts, four users, 8 h of traffic.
func shrunkLoadParams() LoadParams {
	p := DefaultLoadParams()
	p.World.Hosts = 4
	p.World.Users = 4
	p.Hours = 8
	p.MeanInterarrival = 20 * time.Minute
	p.BudgetMedian = 10
	return p
}

func shrunkFigure4Params() Figure4Params {
	p := DefaultFigure4Params()
	p.Load = shrunkLoadParams()
	p.Load.Hours = 6
	p.Order = 3
	p.HorizonSteps = 3
	p.Stride = 2
	p.FitWindow = 100
	p.ResampleSnapshots = 30
	return p
}

// shrunkExperiments returns one shrunken declaration per replicable family —
// the catalog's constructors on small parameters — plus one whose worlds
// clear on two shards.
func shrunkExperiments() []Experiment {
	f3 := DefaultFigure3Params()
	f3.Load = shrunkLoadParams()
	f3.Guarantees = []float64{0.80, 0.90}
	f3.BudgetsPerDay = []float64{0.5, 10, 50}

	f6 := DefaultFigure6Params()
	f6.Load = shrunkLoadParams()
	f6.Load.Hours = 12
	f6.Load.Intensity = nil
	f6.Slots = 6
	f6.Windows = map[string]int{"hour": 360, "quarter": 1080}

	// Sharded clearing inside replication workers: a world's own goroutines
	// must not leak into the cross-worker determinism.
	f3s := f3
	f3s.Load.World.Shards = 2
	sharded := Figure3(f3s)
	sharded.Name += "-2-shards"

	strat := shortStrategiesParams()
	strat.Strategies = []string{"current-price", "predicted-mean"}
	mech := DefaultMechanismsParams()
	mech.ProbeProfiles = 5

	return []Experiment{
		Table("table-shrunk", "", shrunkTableParams()),
		Figure3(f3),
		sharded,
		Figure4(shrunkFigure4Params()),
		Figure5(DefaultFigure5Params()),
		Figure6(f6),
		Figure7(DefaultFigure7Params()),
		Strategies(strat),
		Mechanisms(mech),
		AblationScheduler(shrunkTableParams()),
		AblationSmoothing(shrunkFigure4Params()),
	}
}

// vector is the Result of a test probe: bare metric values.
type vector []float64

func (v vector) String() string     { return fmt.Sprint([]float64(v)) }
func (v vector) Metrics() []float64 { return v }

// probe declares a test-only experiment from a function that returns the
// metric vector directly.
func probe(name string, cols []string, run func(seed int64, tr *tracing.Tracer) ([]float64, error)) Experiment {
	return Experiment{Name: name, Cols: cols,
		Run: func(seed int64, tr *tracing.Tracer) (Result, error) {
			v, err := run(seed, tr)
			return vector(v), err
		}}
}

// TestReplicationDeterminism is the parallelism property: for every
// experiment family, the same base seed must produce byte-identical CSV
// output and equal aggregates whether the replications run on one worker or
// four.
func TestReplicationDeterminism(t *testing.T) {
	for _, spec := range shrunkExperiments() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			serial, err := Replicate(spec, ReplicationConfig{Reps: 3, Parallel: 1, BaseSeed: 2006})
			if err != nil {
				t.Fatalf("serial: %v", err)
			}
			parallel, err := Replicate(spec, ReplicationConfig{Reps: 3, Parallel: 4, BaseSeed: 2006})
			if err != nil {
				t.Fatalf("parallel: %v", err)
			}
			if !reflect.DeepEqual(serial, parallel) {
				t.Fatalf("aggregates differ between 1 and 4 workers:\nserial   %+v\nparallel %+v", serial, parallel)
			}
			sSum, err := serial.SummaryCSV()
			if err != nil {
				t.Fatal(err)
			}
			pSum, err := parallel.SummaryCSV()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(sSum, pSum) {
				t.Fatalf("summary CSVs differ:\n%s\n---\n%s", sSum, pSum)
			}
			sReps, err := serial.PerRepCSV()
			if err != nil {
				t.Fatal(err)
			}
			pReps, err := parallel.PerRepCSV()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(sReps, pReps) {
				t.Fatalf("per-rep CSVs differ:\n%s\n---\n%s", sReps, pReps)
			}
			// Replications are genuinely independent: distinct seeds.
			seen := map[int64]bool{}
			for _, s := range serial.Seeds {
				if seen[s] {
					t.Fatalf("duplicate replication seed %d", s)
				}
				seen[s] = true
			}
		})
	}
}

// TestReplicateRepeatable checks that two identically-configured runs of the
// same spec agree exactly — replications share no hidden state.
func TestReplicateRepeatable(t *testing.T) {
	spec := Table("table-shrunk", "", shrunkTableParams())
	a, err := Replicate(spec, ReplicationConfig{Reps: 2, Parallel: 2, BaseSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Replicate(spec, ReplicationConfig{Reps: 2, Parallel: 2, BaseSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("repeated runs differ:\n%+v\n%+v", a, b)
	}
}

// TestReplicateFirstErrorWins checks error reduction order: the reported
// failure is the lowest-index failing replication regardless of worker
// scheduling.
func TestReplicateFirstErrorWins(t *testing.T) {
	boom := errors.New("boom")
	spec := probe("failing", []string{"x"}, func(seed int64, _ *tracing.Tracer) ([]float64, error) {
		return nil, fmt.Errorf("seed %d: %w", seed, boom)
	})
	_, err := Replicate(spec, ReplicationConfig{Reps: 5, Parallel: 4, BaseSeed: 1})
	if err == nil {
		t.Fatal("expected error")
	}
	if !errors.Is(err, boom) {
		t.Fatalf("error chain broken: %v", err)
	}
	if got := err.Error(); !strings.HasPrefix(got, "experiment: replication 0 ") {
		t.Fatalf("first error by index should win, got %q", got)
	}
}

// TestReplicateValidation covers the config error paths.
func TestReplicateValidation(t *testing.T) {
	ok := probe("ok", []string{"x"}, func(int64, *tracing.Tracer) ([]float64, error) { return []float64{1}, nil })
	if _, err := Replicate(Experiment{}, ReplicationConfig{Reps: 1}); err == nil {
		t.Error("nil Run accepted")
	}
	if _, err := Replicate(ok, ReplicationConfig{Reps: 0}); err == nil {
		t.Error("zero reps accepted")
	}
	short := ok
	short.Cols = []string{"x", "y"}
	if _, err := Replicate(short, ReplicationConfig{Reps: 1}); err == nil {
		t.Error("column/value mismatch accepted")
	}
	// Single replication: mean is the value, no spread.
	agg, err := Replicate(ok, ReplicationConfig{Reps: 1, BaseSeed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if agg.Mean[0] != 1 || agg.StdDev[0] != 0 || agg.CI95[0] != 0 {
		t.Errorf("single-rep aggregate: %+v", agg)
	}
}

// TestCatalog pins the one enumeration: names are unique and round-trip
// through Lookup, and every replicable entry's family, run on the shrunk
// parameters, returns one metric per column its constructor declared. Nothing
// is hand-listed, so a family added to Catalog() without a shrunk run fails.
func TestCatalog(t *testing.T) {
	shrunk := map[string]Experiment{}
	for _, e := range shrunkExperiments() {
		shrunk[e.Name] = e
	}
	shrunk["table1"], shrunk["table2"] = shrunk["table-shrunk"], shrunk["table-shrunk"]

	seen := map[string]bool{}
	for _, e := range Catalog() {
		if seen[e.Name] {
			t.Errorf("%s: listed twice", e.Name)
		}
		seen[e.Name] = true
		if e.Title == "" || e.Run == nil {
			t.Errorf("%s: incomplete declaration", e.Name)
		}
		if got, ok := Lookup(e.Name); !ok || got.Title != e.Title || !reflect.DeepEqual(got.Cols, e.Cols) {
			t.Errorf("%s: Lookup returned %q (%v)", e.Name, got.Title, ok)
		}
		if e.Cols == nil {
			continue // a deterministic sweep: Replicate refuses it, below
		}
		small, ok := shrunk[e.Name]
		if !ok {
			t.Errorf("%s: replicable, but shrunkExperiments has no run of its family", e.Name)
			continue
		}
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			res, err := small.Run(2006, quietTracer())
			if err != nil {
				t.Fatal(err)
			}
			if got := len(res.Metrics()); got == 0 || got != len(small.Cols) {
				t.Errorf("%d metrics for %d columns %v", got, len(small.Cols), small.Cols)
			}
		})
	}
	if _, ok := Lookup("nonsense"); ok {
		t.Error("Lookup found an experiment nobody declared")
	}
	sweep, _ := Lookup("ablation-cap")
	if _, err := Replicate(sweep, ReplicationConfig{Reps: 2}); err == nil {
		t.Error("an experiment without columns was replicated")
	}
}
