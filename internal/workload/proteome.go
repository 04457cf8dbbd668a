// Package workload reproduces the paper's pilot application (§5.1): a
// trivially parallelizable bag-of-tasks bioinformatics job that scans the
// human proteome for regions of high or low similarity using a sliding-
// window sequence-similarity search. The real proteome and NCBI BLAST are
// replaced by a synthetic proteome generator and an ungapped local-alignment
// scorer (DESIGN.md §2); the paper itself notes the experiments "do not
// depend in any way on the application-specific node processing ... more
// than the fact that it is CPU intensive".
//
// The package serves two roles: the example binaries actually run the scan,
// and the experiment harnesses use Chunks/BagOfTasks to shape the simulated
// CPU work exactly like the paper's runs (a chunk is ~212 minutes on one
// 100%-share CPU).
package workload

import (
	"errors"
	"fmt"
	"strings"

	"tycoongrid/internal/rng"
)

// Protein is one sequence in the proteome database.
type Protein struct {
	ID  string
	Seq string
}

// GenerateProteome synthesizes n proteins with lengths uniform in
// [minLen, maxLen], using realistic-ish residue frequencies (leucine-rich,
// tryptophan-poor) so similarity scores are not uniform noise.
func GenerateProteome(src *rng.Source, n, minLen, maxLen int) ([]Protein, error) {
	if n <= 0 || minLen <= 0 || maxLen < minLen {
		return nil, fmt.Errorf("workload: bad proteome shape n=%d len=[%d,%d]", n, minLen, maxLen)
	}
	// Approximate human residue frequencies (per mille).
	freqs := map[byte]int{
		'A': 70, 'C': 23, 'D': 47, 'E': 71, 'F': 36, 'G': 66, 'H': 26,
		'I': 43, 'K': 57, 'L': 100, 'M': 21, 'N': 36, 'P': 63, 'Q': 48,
		'R': 56, 'S': 83, 'T': 53, 'V': 60, 'W': 12, 'Y': 27,
	}
	var table []byte
	for aa, f := range freqs {
		for i := 0; i < f; i++ {
			table = append(table, aa)
		}
	}
	// Deterministic table order (map iteration is random).
	sortBytes(table)
	out := make([]Protein, n)
	for i := range out {
		length := minLen + src.Intn(maxLen-minLen+1)
		var b strings.Builder
		b.Grow(length)
		for j := 0; j < length; j++ {
			b.WriteByte(table[src.Intn(len(table))])
		}
		out[i] = Protein{ID: fmt.Sprintf("P%05d", i), Seq: b.String()}
	}
	return out, nil
}

func sortBytes(b []byte) {
	// counting sort over the tiny alphabet
	var counts [256]int
	for _, c := range b {
		counts[c]++
	}
	i := 0
	for c := 0; c < 256; c++ {
		for k := 0; k < counts[c]; k++ {
			b[i] = byte(c)
			i++
		}
	}
}

// score matrix: a simplified substitution model — identity strongly
// rewarded, chemically similar residues mildly rewarded, else penalized.
var similarGroups = []string{"ILVM", "FWY", "KRH", "DE", "ST", "NQ", "AG"}

func residueScore(a, b byte) int {
	if a == b {
		return 5
	}
	for _, g := range similarGroups {
		if strings.IndexByte(g, a) >= 0 && strings.IndexByte(g, b) >= 0 {
			return 2
		}
	}
	return -1
}

// WindowScore is the best ungapped local alignment score of a query window
// against one subject sequence: for every alignment offset, the maximal
// scoring contiguous run (Kadane over residue scores).
func WindowScore(window, subject string) int {
	best := 0
	w := len(window)
	if w == 0 || len(subject) == 0 {
		return 0
	}
	// Slide the window across the subject; diagonal offsets from -(w-1) to
	// len(subject)-1.
	for off := -(w - 1); off < len(subject); off++ {
		run := 0
		for qi := 0; qi < w; qi++ {
			si := off + qi
			if si < 0 || si >= len(subject) {
				continue
			}
			s := residueScore(window[qi], subject[si])
			run += s
			if run < 0 {
				run = 0
			}
			if run > best {
				best = run
			}
		}
	}
	return best
}

// RegionReport is the application's finding for one window position.
type RegionReport struct {
	ProteinID string
	Offset    int
	Score     int // best similarity against the rest of the proteome
}

// ScanProtein runs the paper's stepwise sliding-window similarity search for
// one query protein against a database, excluding self-hits. windowLen and
// step control the sliding window. It returns one report per window.
func ScanProtein(query Protein, db []Protein, windowLen, step int) ([]RegionReport, error) {
	if windowLen <= 0 || step <= 0 {
		return nil, errors.New("workload: window and step must be positive")
	}
	if len(query.Seq) < windowLen {
		return nil, nil
	}
	var out []RegionReport
	for off := 0; off+windowLen <= len(query.Seq); off += step {
		window := query.Seq[off : off+windowLen]
		best := 0
		for _, subject := range db {
			if subject.ID == query.ID {
				continue
			}
			if s := WindowScore(window, subject.Seq); s > best {
				best = s
			}
		}
		out = append(out, RegionReport{ProteinID: query.ID, Offset: off, Score: best})
	}
	return out, nil
}

// Extremes returns the window reports with the highest and lowest similarity
// — "the goal of the application is to identify protein regions with high or
// low similarity to the rest of the human proteome".
func Extremes(reports []RegionReport) (high, low RegionReport, err error) {
	if len(reports) == 0 {
		return RegionReport{}, RegionReport{}, errors.New("workload: no reports")
	}
	high, low = reports[0], reports[0]
	for _, r := range reports[1:] {
		if r.Score > high.Score {
			high = r
		}
		if r.Score < low.Score {
			low = r
		}
	}
	return high, low, nil
}
