package matrix

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestFromRowsAndAccessors(t *testing.T) {
	m, err := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows() != 3 || m.Cols() != 2 {
		t.Fatalf("dims %dx%d", m.Rows(), m.Cols())
	}
	if m.At(2, 1) != 6 {
		t.Errorf("At(2,1) = %v", m.At(2, 1))
	}
	m.Set(0, 0, 9)
	if m.At(0, 0) != 9 {
		t.Error("Set failed")
	}
}

func TestFromRowsErrors(t *testing.T) {
	if _, err := FromRows(nil); err == nil {
		t.Error("want error on empty input")
	}
	if _, err := FromRows([][]float64{{1, 2}, {3}}); err == nil {
		t.Error("want error on ragged rows")
	}
}

func TestTranspose(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.T()
	if tr.Rows() != 3 || tr.Cols() != 2 {
		t.Fatal("bad transpose dims")
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Errorf("T mismatch at %d,%d", i, j)
			}
		}
	}
}

func TestMul(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := FromRows([][]float64{{5, 6}, {7, 8}})
	c, err := a.Mul(b)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{19, 22}, {43, 50}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if c.At(i, j) != want[i][j] {
				t.Errorf("c[%d][%d] = %v, want %v", i, j, c.At(i, j), want[i][j])
			}
		}
	}
	if _, err := a.Mul(New(3, 3)); err == nil {
		t.Error("want dimension mismatch error")
	}
}

func TestMulVec(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	v, err := a.MulVec([]float64{1, 0, -1})
	if err != nil {
		t.Fatal(err)
	}
	if v[0] != -2 || v[1] != -2 {
		t.Errorf("MulVec = %v", v)
	}
	if _, err := a.MulVec([]float64{1}); err == nil {
		t.Error("want dimension mismatch error")
	}
}

func TestAddScale(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := FromRows([][]float64{{10, 20}, {30, 40}})
	c, err := a.Add(b)
	if err != nil {
		t.Fatal(err)
	}
	if c.At(1, 1) != 44 {
		t.Errorf("Add = %v", c.At(1, 1))
	}
	c.Scale(0.5)
	if c.At(0, 0) != 5.5 {
		t.Errorf("Scale = %v", c.At(0, 0))
	}
	if _, err := a.Add(New(1, 1)); err == nil {
		t.Error("want dimension mismatch error")
	}
}

func TestSolveKnownSystem(t *testing.T) {
	a, _ := FromRows([][]float64{
		{2, 1, -1},
		{-3, -1, 2},
		{-2, 1, 2},
	})
	x, err := Solve(a, []float64{8, -11, -3})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, -1}
	for i := range want {
		if !almost(x[i], want[i], 1e-10) {
			t.Errorf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

func TestSolveSingular(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := Solve(a, []float64{1, 2}); err != ErrSingular {
		t.Errorf("err = %v, want ErrSingular", err)
	}
}

func TestSolveNeedsPivoting(t *testing.T) {
	// Zero on the diagonal forces a row swap.
	a, _ := FromRows([][]float64{{0, 1}, {1, 0}})
	x, err := Solve(a, []float64{3, 7})
	if err != nil {
		t.Fatal(err)
	}
	if x[0] != 7 || x[1] != 3 {
		t.Errorf("x = %v", x)
	}
}

func TestSolveRandomProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(8)
		a := New(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, rng.NormFloat64())
			}
			a.Set(i, i, a.At(i, i)+float64(n)) // diagonally dominant => nonsingular
		}
		want := make([]float64, n)
		for i := range want {
			want[i] = rng.NormFloat64()
		}
		b, err := a.MulVec(want)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Solve(a, b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := range want {
			if !almost(got[i], want[i], 1e-8) {
				t.Fatalf("trial %d: x[%d] = %v, want %v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestInverse(t *testing.T) {
	a, _ := FromRows([][]float64{{4, 7}, {2, 6}})
	inv, err := Inverse(a)
	if err != nil {
		t.Fatal(err)
	}
	prod, _ := a.Mul(inv)
	id := Identity(2)
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if !almost(prod.At(i, j), id.At(i, j), 1e-12) {
				t.Errorf("A*A^-1 [%d][%d] = %v", i, j, prod.At(i, j))
			}
		}
	}
}

func TestCholesky(t *testing.T) {
	a, _ := FromRows([][]float64{
		{4, 12, -16},
		{12, 37, -43},
		{-16, -43, 98},
	})
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := FromRows([][]float64{
		{2, 0, 0},
		{6, 1, 0},
		{-8, 5, 3},
	})
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if !almost(l.At(i, j), want.At(i, j), 1e-10) {
				t.Errorf("L[%d][%d] = %v, want %v", i, j, l.At(i, j), want.At(i, j))
			}
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	if _, err := Cholesky(a); err != ErrNotPositiveDefinite {
		t.Errorf("err = %v, want ErrNotPositiveDefinite", err)
	}
}

// toeplitzDirect builds the full Toeplitz matrix and solves it with the
// general solver, as a reference for Levinson.
func toeplitzDirect(tv, r []float64) ([]float64, error) {
	n := len(r)
	a := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			d := i - j
			if d < 0 {
				d = -d
			}
			a.Set(i, j, tv[d])
		}
	}
	return Solve(a, r)
}

func TestSolveToeplitzMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(10)
		tv := make([]float64, n)
		// Autocorrelation-like sequence: decaying, t[0] dominant, which keeps
		// the Toeplitz matrix positive definite.
		tv[0] = 1 + rng.Float64()
		for i := 1; i < n; i++ {
			tv[i] = tv[i-1] * (0.3 + 0.4*rng.Float64())
		}
		r := make([]float64, n)
		for i := range r {
			r[i] = rng.NormFloat64()
		}
		got, err := SolveToeplitz(tv, r)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want, err := toeplitzDirect(tv, r)
		if err != nil {
			t.Fatalf("trial %d direct: %v", trial, err)
		}
		for i := range want {
			if !almost(got[i], want[i], 1e-7) {
				t.Fatalf("trial %d (n=%d): x[%d] = %v, want %v", trial, n, i, got[i], want[i])
			}
		}
	}
}

func TestSolveToeplitzErrors(t *testing.T) {
	if _, err := SolveToeplitz([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("want size mismatch error")
	}
	if _, err := SolveToeplitz(nil, nil); err == nil {
		t.Error("want empty system error")
	}
	if _, err := SolveToeplitz([]float64{0, 0}, []float64{1, 1}); err != ErrSingular {
		t.Errorf("err = %v, want ErrSingular", err)
	}
}

// The forecast handles solve one order-6 system per host per pick; a slice
// per recursion step (13 per solve) was a quarter of broker-predict's garbage
// and made its peak RSS depend on where the last GC cycle fell. The handles
// pass their own buffers, so their solve allocates nothing; reused buffers
// holding an earlier solve must give the same bits as fresh ones.
func TestSolveToeplitzAllocationBound(t *testing.T) {
	tt := []float64{1, 0.8, 0.6, 0.45, 0.3, 0.2}
	r := []float64{0.8, 0.6, 0.45, 0.3, 0.2, 0.1}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := SolveToeplitz(tt, r); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("SolveToeplitz(order 6) = %v allocs, want <= 2 (solution + one scratch array)", allocs)
	}

	want, _ := SolveToeplitz(tt, r)
	x, scratch := make([]float64, len(r)), make([]float64, 4*len(r))
	for i := range x {
		x[i] = 1e6 // garbage an earlier solve could leave
	}
	allocs = testing.AllocsPerRun(100, func() {
		if _, err := SolveToeplitzInto(x, scratch, tt, r); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("SolveToeplitzInto(order 6) = %v allocs, want 0", allocs)
	}
	for i := range want {
		if x[i] != want[i] {
			t.Fatalf("reused-buffer solve x[%d] = %v, fresh %v", i, x[i], want[i])
		}
	}
}

func TestVecHelpers(t *testing.T) {
	if VecDot([]float64{1, 2, 3}, []float64{4, 5, 6}) != 32 {
		t.Error("VecDot wrong")
	}
	if VecSum([]float64{1, 2, 3}) != 6 {
		t.Error("VecSum wrong")
	}
}

func TestInverseProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		a := New(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, rng.NormFloat64())
			}
			a.Set(i, i, a.At(i, i)+float64(2*n))
		}
		inv, err := Inverse(a)
		if err != nil {
			return false
		}
		prod, err := a.Mul(inv)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want := 0.0
				if i == j {
					want = 1
				}
				if !almost(prod.At(i, j), want, 1e-8) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSolveToeplitz(b *testing.B) {
	n := 12
	tv := make([]float64, n)
	tv[0] = 2
	for i := 1; i < n; i++ {
		tv[i] = tv[i-1] * 0.6
	}
	r := make([]float64, n)
	for i := range r {
		r[i] = float64(i%3) - 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveToeplitz(tv, r); err != nil {
			b.Fatal(err)
		}
	}
}
