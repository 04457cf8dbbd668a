package matrix

import (
	"errors"
	"fmt"
	"math"
)

// SymBanded is a symmetric positive-definite banded matrix stored by
// diagonals: diag[d][i] holds A[i][i+d] for d = 0..bw. It is the shape of
// the (I + lambda*D'D) systems behind the discrete cubic smoothing spline
// used by the AR price model's pre-pass (paper §5.4, Figure 4).
type SymBanded struct {
	n    int
	bw   int // bandwidth: number of superdiagonals
	diag [][]float64
}

// NewSymBanded returns a zero n x n symmetric banded matrix with bw
// superdiagonals.
func NewSymBanded(n, bw int) (*SymBanded, error) {
	if n <= 0 || bw < 0 || bw >= n {
		return nil, fmt.Errorf("matrix: bad banded dimensions n=%d bw=%d", n, bw)
	}
	d := make([][]float64, bw+1)
	for k := range d {
		d[k] = make([]float64, n-k)
	}
	return &SymBanded{n: n, bw: bw, diag: d}, nil
}

// At returns A[i][j]; |i-j| beyond the bandwidth is zero.
func (m *SymBanded) At(i, j int) float64 {
	if j < i {
		i, j = j, i
	}
	d := j - i
	if d > m.bw {
		return 0
	}
	return m.diag[d][i]
}

// Add adds v to A[i][j] (and by symmetry A[j][i]).
func (m *SymBanded) Add(i, j int, v float64) error {
	if j < i {
		i, j = j, i
	}
	d := j - i
	if d > m.bw {
		return errors.New("matrix: write outside band")
	}
	m.diag[d][i] += v
	return nil
}

// SolveSPD solves A x = b via banded Cholesky (A = L L^T), destroying
// neither A nor b. It returns ErrNotPositiveDefinite when the factorization
// breaks down.
func (m *SymBanded) SolveSPD(b []float64) ([]float64, error) {
	if len(b) != m.n {
		return nil, fmt.Errorf("matrix: rhs length %d, want %d", len(b), m.n)
	}
	n, bw := m.n, m.bw
	// l[d][i] holds L[i+d][i]: subdiagonal d of the factor.
	l := make([][]float64, bw+1)
	for d := range l {
		l[d] = make([]float64, n-d)
	}
	for j := 0; j < n; j++ {
		// Diagonal element.
		s := m.diag[0][j]
		for d := 1; d <= bw && j-d >= 0; d++ {
			s -= l[d][j-d] * l[d][j-d]
		}
		if s <= 0 {
			return nil, ErrNotPositiveDefinite
		}
		ljj := math.Sqrt(s)
		l[0][j] = ljj
		// Below-diagonal elements L[i][j], i = j+1..j+bw.
		for i := j + 1; i <= j+bw && i < n; i++ {
			s := m.At(i, j)
			for d := 1; d <= bw; d++ {
				k := j - d
				if k < 0 || i-k > bw {
					continue
				}
				s -= l[i-k][k] * l[j-k][k]
			}
			l[i-j][j] = s / ljj
		}
	}
	// Forward substitution L y = b.
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		for d := 1; d <= bw && i-d >= 0; d++ {
			s -= l[d][i-d] * y[i-d]
		}
		y[i] = s / l[0][i]
	}
	// Back substitution L^T x = y.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for d := 1; d <= bw && i+d < n; d++ {
			s -= l[d][i] * x[i+d]
		}
		x[i] = s / l[0][i]
	}
	return x, nil
}
