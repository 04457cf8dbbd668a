// Package matrix implements the small dense linear algebra needed by the
// prediction stack: general solves and inverses via Gaussian elimination with
// partial pivoting (portfolio covariance equations, §4.4), Cholesky
// factorization for symmetric positive-definite covariances, and the
// Levinson-Durbin recursion for the Toeplitz Yule-Walker systems of the AR(k)
// price model (§4.3).
//
// Matrices in this package are row-major and sized at most a few dozen rows
// (number of hosts in a portfolio, AR model order), so clarity beats cache
// blocking; all algorithms are the textbook O(n^3) or better forms.
package matrix

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	rows, cols int
	data       []float64
}

// New returns a zero rows x cols matrix. It panics on non-positive
// dimensions; sizes come from trusted internal callers.
func New(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic("matrix: non-positive dimension")
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from a slice of equal-length rows.
func FromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 || len(rows[0]) == 0 {
		return nil, errors.New("matrix: empty input")
	}
	m := New(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.cols {
			return nil, fmt.Errorf("matrix: row %d has %d columns, want %d", i, len(r), m.cols)
		}
		copy(m.data[i*m.cols:(i+1)*m.cols], r)
	}
	return m, nil
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at (i, j).
func (m *Matrix) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns the element at (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := New(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// T returns the transpose as a new matrix.
func (m *Matrix) T() *Matrix {
	t := New(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// Mul returns m * b.
func (m *Matrix) Mul(b *Matrix) (*Matrix, error) {
	if m.cols != b.rows {
		return nil, fmt.Errorf("matrix: dimension mismatch %dx%d * %dx%d", m.rows, m.cols, b.rows, b.cols)
	}
	out := New(m.rows, b.cols)
	for i := 0; i < m.rows; i++ {
		for k := 0; k < m.cols; k++ {
			a := m.At(i, k)
			if a == 0 {
				continue
			}
			for j := 0; j < b.cols; j++ {
				out.data[i*out.cols+j] += a * b.At(k, j)
			}
		}
	}
	return out, nil
}

// MulVec returns m * v for a column vector v.
func (m *Matrix) MulVec(v []float64) ([]float64, error) {
	if m.cols != len(v) {
		return nil, fmt.Errorf("matrix: MulVec dimension mismatch %dx%d * %d", m.rows, m.cols, len(v))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		var s float64
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, a := range row {
			s += a * v[j]
		}
		out[i] = s
	}
	return out, nil
}

// Scale multiplies every element by s in place and returns m.
func (m *Matrix) Scale(s float64) *Matrix {
	for i := range m.data {
		m.data[i] *= s
	}
	return m
}

// Add returns m + b.
func (m *Matrix) Add(b *Matrix) (*Matrix, error) {
	if m.rows != b.rows || m.cols != b.cols {
		return nil, errors.New("matrix: Add dimension mismatch")
	}
	out := m.Clone()
	for i := range out.data {
		out.data[i] += b.data[i]
	}
	return out, nil
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%.6g", m.At(i, j))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ErrSingular is returned when a solve or inverse encounters a (numerically)
// singular matrix.
var ErrSingular = errors.New("matrix: singular matrix")

// Solve solves A x = b by Gaussian elimination with partial pivoting.
// A must be square; b has length A.Rows(). A and b are not modified.
func Solve(a *Matrix, b []float64) ([]float64, error) {
	n := a.rows
	if a.cols != n {
		return nil, errors.New("matrix: Solve requires a square matrix")
	}
	if len(b) != n {
		return nil, fmt.Errorf("matrix: Solve rhs length %d, want %d", len(b), n)
	}
	// Augmented working copy.
	m := a.Clone()
	x := make([]float64, n)
	copy(x, b)

	for col := 0; col < n; col++ {
		// Partial pivot.
		piv := col
		best := math.Abs(m.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(m.At(r, col)); v > best {
				best, piv = v, r
			}
		}
		if best < 1e-13 {
			return nil, ErrSingular
		}
		if piv != col {
			swapRows(m, piv, col)
			x[piv], x[col] = x[col], x[piv]
		}
		inv := 1 / m.At(col, col)
		for r := col + 1; r < n; r++ {
			f := m.At(r, col) * inv
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				m.Set(r, c, m.At(r, c)-f*m.At(col, c))
			}
			x[r] -= f * x[col]
		}
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= m.At(i, j) * x[j]
		}
		x[i] = s / m.At(i, i)
	}
	return x, nil
}

func swapRows(m *Matrix, a, b int) {
	ra := m.data[a*m.cols : (a+1)*m.cols]
	rb := m.data[b*m.cols : (b+1)*m.cols]
	for i := range ra {
		ra[i], rb[i] = rb[i], ra[i]
	}
}

// Inverse returns A^-1 computed column by column via Solve.
func Inverse(a *Matrix) (*Matrix, error) {
	n := a.rows
	if a.cols != n {
		return nil, errors.New("matrix: Inverse requires a square matrix")
	}
	inv := New(n, n)
	e := make([]float64, n)
	for j := 0; j < n; j++ {
		for i := range e {
			e[i] = 0
		}
		e[j] = 1
		col, err := Solve(a, e)
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			inv.Set(i, j, col[i])
		}
	}
	return inv, nil
}

// ErrNotPositiveDefinite is returned by Cholesky for matrices that are not
// symmetric positive definite.
var ErrNotPositiveDefinite = errors.New("matrix: not positive definite")

// Cholesky returns the lower-triangular L with A = L L^T. A must be
// symmetric positive definite (covariance matrices in portfolio selection).
func Cholesky(a *Matrix) (*Matrix, error) {
	n := a.rows
	if a.cols != n {
		return nil, errors.New("matrix: Cholesky requires a square matrix")
	}
	l := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			if i == j {
				if s <= 0 {
					return nil, ErrNotPositiveDefinite
				}
				l.Set(i, i, math.Sqrt(s))
			} else {
				l.Set(i, j, s/l.At(j, j))
			}
		}
	}
	return l, nil
}

// SolveToeplitz solves the symmetric Toeplitz system T x = r where
// T[i][j] = t[|i-j|], using the Levinson-Durbin recursion in O(n^2).
// This is the Yule-Walker solve of the paper's AR(k) model: t holds
// autocorrelations R(0..k-1) and r holds R(1..k).
func SolveToeplitz(t, r []float64) ([]float64, error) {
	return SolveToeplitzInto(make([]float64, len(r)), make([]float64, 4*len(r)), t, r)
}

// SolveToeplitzInto is SolveToeplitz writing the solution into x (length
// len(r)) and working in scratch (length 4*len(r)), so a caller that solves
// once per forecast allocates nothing. x holds garbage after an error.
func SolveToeplitzInto(x, scratch, t, r []float64) ([]float64, error) {
	n := len(r)
	if len(t) != n {
		return nil, fmt.Errorf("matrix: Toeplitz sizes t=%d r=%d", len(t), n)
	}
	if n == 0 {
		return nil, errors.New("matrix: empty Toeplitz system")
	}
	if t[0] == 0 {
		return nil, ErrSingular
	}

	// f and b are the forward/backward vectors of the Levinson recursion, nf
	// and nb their extensions by one term; all four share one scratch array
	// (a solve per forecast handle per pick makes per-step slices the
	// broker's largest source of garbage).
	x, scratch = x[:n], scratch[:4*n]
	clear(x)
	f, b := scratch[:n], scratch[n:2*n]
	f[0] = 1 / t[0]
	b[0] = 1 / t[0]
	x[0] = r[0] / t[0]

	for i := 1; i < n; i++ {
		// Error terms for the forward/backward vectors.
		var ef, eb float64
		for j := 0; j < i; j++ {
			ef += t[i-j] * f[j]
			eb += t[j+1] * b[j]
		}
		den := 1 - ef*eb
		if den == 0 {
			return nil, ErrSingular
		}
		// Extend forward/backward vectors.
		nf, nb := scratch[2*n:2*n+i+1], scratch[3*n:3*n+i+1]
		clear(nf)
		clear(nb)
		for j := 0; j < i; j++ {
			nf[j] += f[j] / den
			nf[j+1] -= ef / den * b[j]
			nb[j+1] += b[j] / den
			nb[j] -= eb / den * f[j]
		}
		copy(f[:i+1], nf)
		copy(b[:i+1], nb)

		// Update solution.
		var ex float64
		for j := 0; j < i; j++ {
			ex += t[i-j] * x[j]
		}
		diff := r[i] - ex
		for j := 0; j <= i; j++ {
			x[j] += diff * b[j]
		}
	}
	return x[:n], nil
}

// VecDot returns the dot product of two equal-length vectors.
func VecDot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// VecSum returns the sum of the elements of v.
func VecSum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}
