package matrix

import (
	"math/rand"
	"testing"
)

func TestSymBandedValidation(t *testing.T) {
	if _, err := NewSymBanded(0, 0); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := NewSymBanded(3, 3); err == nil {
		t.Error("bw >= n accepted")
	}
	if _, err := NewSymBanded(3, -1); err == nil {
		t.Error("negative bw accepted")
	}
}

func TestSymBandedAccessors(t *testing.T) {
	m, err := NewSymBanded(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Add(1, 3, 7); err != nil {
		t.Fatal(err)
	}
	if m.At(1, 3) != 7 || m.At(3, 1) != 7 {
		t.Error("symmetric access broken")
	}
	if m.At(0, 4) != 0 {
		t.Error("outside band should read zero")
	}
	if err := m.Add(0, 4, 1); err == nil {
		t.Error("write outside band accepted")
	}
}

// buildSPD constructs a random banded SPD matrix as (banded part of)
// diagonally dominant symmetric matrix.
func buildSPD(t *testing.T, n, bw int, rng *rand.Rand) *SymBanded {
	t.Helper()
	m, err := NewSymBanded(n, bw)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for d := 1; d <= bw && i+d < n; d++ {
			if err := m.Add(i, i+d, rng.NormFloat64()); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Make diagonally dominant.
	for i := 0; i < n; i++ {
		var row float64
		for j := 0; j < n; j++ {
			if j != i {
				v := m.At(i, j)
				if v < 0 {
					v = -v
				}
				row += v
			}
		}
		if err := m.Add(i, i, row+1); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

func TestSolveSPDMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 30; trial++ {
		n := 3 + rng.Intn(20)
		bw := rng.Intn(3)
		if bw >= n {
			bw = n - 1
		}
		m := buildSPD(t, n, bw, rng)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		got, err := m.SolveSPD(b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		dense := New(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				dense.Set(i, j, m.At(i, j))
			}
		}
		want, err := Solve(dense, b)
		if err != nil {
			t.Fatalf("trial %d dense: %v", trial, err)
		}
		for i := range want {
			if !almost(got[i], want[i], 1e-8) {
				t.Fatalf("trial %d (n=%d bw=%d): x[%d] = %v, want %v", trial, n, bw, i, got[i], want[i])
			}
		}
	}
}

func TestSolveSPDRejectsIndefinite(t *testing.T) {
	m, _ := NewSymBanded(3, 1)
	// Diagonal of -1 is clearly not positive definite.
	for i := 0; i < 3; i++ {
		if err := m.Add(i, i, -1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.SolveSPD([]float64{1, 1, 1}); err != ErrNotPositiveDefinite {
		t.Errorf("err = %v", err)
	}
}

func TestSolveSPDRhsLength(t *testing.T) {
	m, _ := NewSymBanded(3, 1)
	if _, err := m.SolveSPD([]float64{1}); err == nil {
		t.Error("short rhs accepted")
	}
}

func BenchmarkSolveSPDSplineSized(b *testing.B) {
	// The Figure 4 smoothing pre-pass solves a 7200-point bandwidth-2 system.
	n := 7200
	m, err := NewSymBanded(n, 2)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		_ = m.Add(i, i, 7)
		if i+1 < n {
			_ = m.Add(i, i+1, -4)
		}
		if i+2 < n {
			_ = m.Add(i, i+2, 1)
		}
	}
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = float64(i % 13)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.SolveSPD(rhs); err != nil {
			b.Fatal(err)
		}
	}
}
