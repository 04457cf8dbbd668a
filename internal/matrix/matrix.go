// Package matrix implements the small linear algebra needed by the
// prediction stack: general solves via Gaussian elimination with partial
// pivoting (portfolio covariance equations, §4.4), a banded symmetric
// positive-definite solve for the smoothing spline, and the Levinson-Durbin
// recursion for the Toeplitz Yule-Walker systems of the AR(k) price model
// (§4.3).
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

// ErrSingular is returned when a solve encounters a (numerically) singular
// matrix.
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

// ErrNotPositiveDefinite is returned by SymBanded.SolveSPD for matrices that
// are not symmetric positive definite.
var ErrNotPositiveDefinite = errors.New("matrix: not positive definite")

// SolveYuleWalker solves the Yule-Walker equations of the paper's AR(k)
// model, sum_j a_j R(|i-j|) = R(i+1) for i = 0..k-1, given the
// autocorrelations r = R(0..k), k = len(r)-1 >= 1, and returns a_1..a_k. It
// runs the Levinson-Durbin recursion: O(k^2), one division per order.
func SolveYuleWalker(r []float64) ([]float64, error) {
	return SolveYuleWalkerInto(make([]float64, max(len(r)-1, 0)), r)
}

// SolveYuleWalkerInto is SolveYuleWalker writing the coefficients into a
// (length len(r)-1), so a caller that solves once per forecast allocates
// nothing. a holds garbage after an error.
func SolveYuleWalkerInto(a, r []float64) ([]float64, error) {
	k := len(r) - 1
	if k < 1 {
		return nil, errors.New("matrix: Yule-Walker needs R(0) and R(1) at least")
	}
	if len(a) != k {
		return nil, fmt.Errorf("matrix: Yule-Walker order %d into %d coefficients", k, len(a))
	}
	// e is the prediction error of the order-m model in a[:m]; each order
	// adds the reflection coefficient kappa and folds it into the rest.
	e := r[0]
	for m := 0; m < k; m++ {
		if e == 0 {
			return nil, ErrSingular
		}
		acc := r[m+1]
		for j := 0; j < m; j++ {
			acc -= a[j] * r[m-j]
		}
		kappa := acc / e
		for i, j := 0, m-1; i <= j; i, j = i+1, j-1 {
			ai, aj := a[i], a[j]
			a[i], a[j] = ai-kappa*aj, aj-kappa*ai
		}
		a[m] = kappa
		e *= 1 - kappa*kappa
	}
	return a, nil
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
