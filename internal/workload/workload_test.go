package workload

import (
	"strings"
	"testing"
	"time"

	"tycoongrid/internal/rng"
)

func TestGenerateProteomeShape(t *testing.T) {
	src := rng.New(1)
	ps, err := GenerateProteome(src, 50, 100, 300)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 50 {
		t.Fatalf("proteins = %d", len(ps))
	}
	ids := map[string]bool{}
	for _, p := range ps {
		if len(p.Seq) < 100 || len(p.Seq) > 300 {
			t.Errorf("%s length %d outside [100,300]", p.ID, len(p.Seq))
		}
		if ids[p.ID] {
			t.Errorf("duplicate id %s", p.ID)
		}
		ids[p.ID] = true
		for i := 0; i < len(p.Seq); i++ {
			if !strings.ContainsRune(Alphabet, rune(p.Seq[i])) {
				t.Fatalf("invalid residue %c", p.Seq[i])
			}
		}
	}
}

func TestGenerateProteomeDeterministic(t *testing.T) {
	a, _ := GenerateProteome(rng.New(7), 5, 50, 60)
	b, _ := GenerateProteome(rng.New(7), 5, 50, 60)
	for i := range a {
		if a[i].Seq != b[i].Seq {
			t.Fatal("same seed produced different proteomes")
		}
	}
}

func TestGenerateProteomeValidation(t *testing.T) {
	src := rng.New(1)
	cases := [][3]int{{0, 10, 20}, {5, 0, 20}, {5, 30, 20}}
	for _, c := range cases {
		if _, err := GenerateProteome(src, c[0], c[1], c[2]); err == nil {
			t.Errorf("shape %v accepted", c)
		}
	}
}

func TestResidueScore(t *testing.T) {
	if residueScore('L', 'L') != 5 {
		t.Error("identity score")
	}
	if residueScore('I', 'L') != 2 {
		t.Error("similar-group score")
	}
	if residueScore('W', 'D') != -1 {
		t.Error("mismatch score")
	}
}

func TestWindowScoreSelfIsMaximal(t *testing.T) {
	w := "ACDEFGHIKL"
	self := WindowScore(w, w)
	if self != 5*len(w) {
		t.Errorf("self score = %d, want %d", self, 5*len(w))
	}
	other := WindowScore(w, "YYYYYYYYYY")
	if other >= self {
		t.Errorf("unrelated score %d >= self score %d", other, self)
	}
	if WindowScore("", "ABC") != 0 || WindowScore("A", "") != 0 {
		t.Error("empty inputs should score 0")
	}
}

func TestWindowScoreFindsEmbeddedMatch(t *testing.T) {
	window := "MKWVTFISLL"
	subject := "YYYYY" + window + "DDDDD"
	if got := WindowScore(window, subject); got != 5*len(window) {
		t.Errorf("embedded match score = %d, want %d", got, 5*len(window))
	}
}

func TestScanProtein(t *testing.T) {
	src := rng.New(3)
	db, _ := GenerateProteome(src, 10, 80, 120)
	// Plant a shared region between query and db[0].
	query := Protein{ID: "Q1", Seq: db[3].Seq[:40] + db[5].Seq[:40]}
	reports, err := ScanProtein(query, db, 20, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) == 0 {
		t.Fatal("no reports")
	}
	// Windows overlapping planted regions must hit the identity maximum.
	if reports[0].Score != 100 {
		t.Errorf("planted region score = %d, want 100", reports[0].Score)
	}
	high, low, err := Extremes(reports)
	if err != nil {
		t.Fatal(err)
	}
	if high.Score < low.Score {
		t.Error("extremes inverted")
	}
	// Self-hits excluded: scanning db[3] against db must not report its own
	// perfect match... unless another protein shares the region. Use a
	// unique artificial sequence to check exclusion.
	solo := Protein{ID: db[0].ID, Seq: db[0].Seq}
	rs, err := ScanProtein(solo, []Protein{db[0]}, 20, 20)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		if r.Score != 0 {
			t.Errorf("self-hit not excluded: %+v", r)
		}
	}
}

func TestScanProteinValidation(t *testing.T) {
	if _, err := ScanProtein(Protein{Seq: "AAAA"}, nil, 0, 1); err == nil {
		t.Error("zero window accepted")
	}
	if _, err := ScanProtein(Protein{Seq: "AAAA"}, nil, 2, 0); err == nil {
		t.Error("zero step accepted")
	}
	rs, err := ScanProtein(Protein{Seq: "AA"}, nil, 10, 1)
	if err != nil || rs != nil {
		t.Error("short query should yield no reports")
	}
	if _, _, err := Extremes(nil); err == nil {
		t.Error("empty extremes accepted")
	}
}

func TestChunksBalance(t *testing.T) {
	src := rng.New(5)
	ps, _ := GenerateProteome(src, 100, 50, 500)
	chunks, err := Chunks(ps, 7, PaperChunkDuration)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) != 7 {
		t.Fatalf("chunks = %d", len(chunks))
	}
	var total int
	masses := make([]int, len(chunks))
	for i, c := range chunks {
		for _, p := range c.Proteins {
			masses[i] += len(p.Seq)
			total += len(p.Seq)
		}
		if c.WorkMHzSec != PaperChunkDuration.Seconds()*ReferenceMHz {
			t.Errorf("chunk %d work = %v", i, c.WorkMHzSec)
		}
	}
	// All proteins assigned.
	var want int
	for _, p := range ps {
		want += len(p.Seq)
	}
	if total != want {
		t.Errorf("residues assigned %d, want %d", total, want)
	}
	// Reasonable balance: max/min mass within 2x.
	min, max := masses[0], masses[0]
	for _, m := range masses {
		if m < min {
			min = m
		}
		if m > max {
			max = m
		}
	}
	if max > 2*min {
		t.Errorf("chunk imbalance: %v", masses)
	}
}

func TestChunksValidation(t *testing.T) {
	if _, err := Chunks(nil, 0, time.Hour); err == nil {
		t.Error("zero chunks accepted")
	}
	if _, err := Chunks(nil, 3, 0); err == nil {
		t.Error("zero duration accepted")
	}
}

func TestApplicationShape(t *testing.T) {
	// The paper's shape: 15 sub-jobs per wave, chunks of 212 minutes.
	app, err := NewApplication(15, PaperChunkDuration)
	if err != nil {
		t.Fatal(err)
	}
	if len(app.Chunks) != 15 {
		t.Errorf("app = %+v", app)
	}
	wantWork := 15 * PaperChunkDuration.Seconds() * ReferenceMHz
	if app.TotalWork() != wantWork {
		t.Errorf("total work = %v, want %v", app.TotalWork(), wantWork)
	}
	// On 15 dedicated nodes, one wave of 212 minutes.
	if got := app.IdealDuration(15); got != PaperChunkDuration {
		t.Errorf("ideal on 15 nodes = %v", got)
	}
	// On 5 nodes: 3 waves.
	if got := app.IdealDuration(5); got != 3*PaperChunkDuration {
		t.Errorf("ideal on 5 nodes = %v", got)
	}
	if app.IdealDuration(0) != 0 {
		t.Error("zero nodes should be zero")
	}
}

func BenchmarkWindowScore(b *testing.B) {
	src := rng.New(1)
	db, _ := GenerateProteome(src, 1, 500, 500)
	window := db[0].Seq[:25]
	subject := db[0].Seq[100:400]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		WindowScore(window, subject)
	}
}

// Alphabet is the 20 standard amino acids.
const Alphabet = "ACDEFGHIKLMNPQRSTVWY"
