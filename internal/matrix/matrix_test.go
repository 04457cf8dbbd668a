package matrix

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
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

// toeplitzDirect builds the full Toeplitz matrix T[i][j] = tv[|i-j|] and
// solves T x = r with the general solver, as a reference for Levinson-Durbin.
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

// randomACF returns R(0..k) of a stationary-looking series: decaying, R(0)
// dominant, which keeps the Toeplitz matrix positive definite.
func randomACF(rng *rand.Rand, k int) []float64 {
	acf := make([]float64, k+1)
	acf[0] = 1 + rng.Float64()
	for i := 1; i <= k; i++ {
		acf[i] = acf[i-1] * (0.3 + 0.4*rng.Float64())
	}
	return acf
}

func TestSolveYuleWalkerMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		k := 1 + rng.Intn(10)
		acf := randomACF(rng, k)
		if trial%2 == 1 {
			for i := 1; i <= k; i += 2 {
				acf[i] = -acf[i] // an oscillating series
			}
		}
		got, err := SolveYuleWalker(acf)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want, err := toeplitzDirect(acf[:k], acf[1:])
		if err != nil {
			t.Fatalf("trial %d direct: %v", trial, err)
		}
		for i := range want {
			if !almost(got[i], want[i], 1e-7) {
				t.Fatalf("trial %d (k=%d): a[%d] = %v, want %v", trial, k, i, got[i], want[i])
			}
		}
	}
}

func TestSolveYuleWalkerErrors(t *testing.T) {
	if _, err := SolveYuleWalkerInto(make([]float64, 1), []float64{1, 0.5, 0.2}); err == nil {
		t.Error("want size mismatch error")
	}
	for _, acf := range [][]float64{nil, {1}} {
		if _, err := SolveYuleWalker(acf); err == nil {
			t.Errorf("SolveYuleWalker(%v): want empty system error", acf)
		}
	}
	if _, err := SolveYuleWalker([]float64{0, 0, 0}); err != ErrSingular {
		t.Errorf("err = %v, want ErrSingular", err)
	}
	// R(1) = R(0): the order-1 model predicts perfectly, so order 2 is
	// singular.
	if _, err := SolveYuleWalker([]float64{1, 1, 1}); err != ErrSingular {
		t.Errorf("err = %v, want ErrSingular", err)
	}
}

// The forecast handles solve one order-6 system per host per pick; a slice
// per recursion step (13 per solve) was a quarter of broker-predict's garbage
// and made its peak RSS depend on where the last GC cycle fell. The handles
// pass their own buffer, so their solve allocates nothing; a reused buffer
// holding an earlier solve must give the same bits as a fresh one.
func TestSolveYuleWalkerAllocationBound(t *testing.T) {
	acf := []float64{1, 0.8, 0.6, 0.45, 0.3, 0.2, 0.1}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := SolveYuleWalker(acf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Errorf("SolveYuleWalker(order 6) = %v allocs, want <= 1 (the solution)", allocs)
	}

	want, _ := SolveYuleWalker(acf)
	a := make([]float64, len(acf)-1)
	for i := range a {
		a[i] = 1e6 // garbage an earlier solve could leave
	}
	allocs = testing.AllocsPerRun(100, func() {
		if _, err := SolveYuleWalkerInto(a, acf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("SolveYuleWalkerInto(order 6) = %v allocs, want 0", allocs)
	}
	for i := range want {
		if a[i] != want[i] {
			t.Fatalf("reused-buffer solve a[%d] = %v, fresh %v", i, a[i], want[i])
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

func BenchmarkSolveYuleWalker(b *testing.B) {
	acf := make([]float64, 13)
	acf[0] = 2
	for i := 1; i < len(acf); i++ {
		acf[i] = acf[i-1] * 0.6
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveYuleWalker(acf); err != nil {
			b.Fatal(err)
		}
	}
}

func TestNewPanicsOnNonPositiveDimension(t *testing.T) {
	for _, dims := range [][2]int{{0, 1}, {1, 0}, {-1, 2}} {
		t.Run(fmt.Sprintf("%dx%d", dims[0], dims[1]), func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			New(dims[0], dims[1])
		})
	}
}

func TestString(t *testing.T) {
	m, err := FromRows([][]float64{{1, 0.5}, {-2, 1e-7}})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := m.String(), "1 0.5\n-2 1e-07\n"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}
