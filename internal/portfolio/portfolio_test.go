package portfolio

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"tycoongrid/internal/mathx"
	"tycoongrid/internal/matrix"
	"tycoongrid/internal/rng"
)

func diagCov(vars ...float64) *matrix.Matrix {
	m := matrix.New(len(vars), len(vars))
	for i, v := range vars {
		m.Set(i, i, v)
	}
	return m
}

func assets(returns ...float64) []Asset {
	out := make([]Asset, len(returns))
	for i, r := range returns {
		out[i] = Asset{ID: fmt.Sprintf("h%d", i), Return: r}
	}
	return out
}

func TestMinimumVarianceDiagonal(t *testing.T) {
	// With a diagonal covariance, min-variance weights are proportional to
	// 1/variance.
	as := assets(1, 2, 3)
	cov := diagCov(1, 2, 4)
	p, err := MinimumVariance(as, cov)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{4.0 / 7, 2.0 / 7, 1.0 / 7}
	for i := range want {
		if !mathx.AlmostEqual(p.Weights[i], want[i], 1e-12) {
			t.Errorf("w[%d] = %v, want %v", i, p.Weights[i], want[i])
		}
	}
	if !mathx.AlmostEqual(matrix.VecSum(p.Weights), 1, 1e-12) {
		t.Error("weights do not sum to 1")
	}
}

func TestMinimumVarianceBeatsAllOthers(t *testing.T) {
	src := rng.New(5)
	for trial := 0; trial < 30; trial++ {
		n := 2 + src.Intn(8)
		// Random SPD covariance: A'A + eps*I.
		a := matrix.New(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, src.Normal(0, 1))
			}
		}
		cov := matrix.New(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				for k := 0; k < n; k++ {
					cov.Set(i, j, cov.At(i, j)+a.At(k, i)*a.At(k, j))
				}
			}
			cov.Set(i, i, cov.At(i, i)+0.1)
		}
		as := make([]Asset, n)
		for i := range as {
			as[i] = Asset{ID: fmt.Sprintf("h%d", i), Return: src.Uniform(0.5, 2)}
		}
		mv, err := MinimumVariance(as, cov)
		if err != nil {
			t.Fatal(err)
		}
		mvVar, err := mv.Variance(cov)
		if err != nil {
			t.Fatal(err)
		}
		// Random comparison portfolios must not have lower variance.
		for k := 0; k < 20; k++ {
			w := make([]float64, n)
			var sum float64
			for i := range w {
				w[i] = src.Uniform(0, 1)
				sum += w[i]
			}
			for i := range w {
				w[i] /= sum
			}
			p := Portfolio{Assets: as, Weights: w}
			v, err := p.Variance(cov)
			if err != nil {
				t.Fatal(err)
			}
			if v < mvVar-1e-9 {
				t.Fatalf("trial %d: random portfolio variance %v < min-variance %v", trial, v, mvVar)
			}
		}
	}
}

func TestEqualShares(t *testing.T) {
	p, err := EqualShares(assets(1, 2, 3, 4))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range p.Weights {
		if w != 0.25 {
			t.Errorf("weight = %v", w)
		}
	}
	if !mathx.AlmostEqual(p.Return(), 2.5, 1e-12) {
		t.Errorf("return = %v", p.Return())
	}
	if _, err := EqualShares(nil); !errors.Is(err, ErrNoAssets) {
		t.Errorf("empty: %v", err)
	}
}

func TestOptimalHitsTargetReturn(t *testing.T) {
	as := assets(1.0, 1.5, 2.0)
	cov := diagCov(0.04, 0.09, 0.25)
	for _, target := range []float64{1.2, 1.5, 1.8} {
		p, err := Optimal(as, cov, target)
		if err != nil {
			t.Fatalf("target %v: %v", target, err)
		}
		if !mathx.AlmostEqual(p.Return(), target, 1e-9) {
			t.Errorf("target %v: achieved %v", target, p.Return())
		}
		if !mathx.AlmostEqual(matrix.VecSum(p.Weights), 1, 1e-9) {
			t.Errorf("target %v: weights sum %v", target, matrix.VecSum(p.Weights))
		}
	}
}

func TestOptimalIsMinimumVarianceForTarget(t *testing.T) {
	// Among random portfolios with (approximately) the same return, the
	// closed-form optimum must have the smallest variance.
	as := assets(1.0, 1.5, 2.0)
	cov := diagCov(0.04, 0.09, 0.25)
	target := 1.5
	opt, err := Optimal(as, cov, target)
	if err != nil {
		t.Fatal(err)
	}
	optVar, _ := opt.Variance(cov)
	src := rng.New(3)
	for k := 0; k < 200; k++ {
		// Random weights on the plane sum(w)=1, w'mu=target: parametrize by
		// w0, solve the two constraints for w1, w2.
		w0 := src.Uniform(-1, 1.5)
		// w1 + w2 = 1 - w0 ; 1.5 w1 + 2 w2 = target - w0
		// => w2 = (target - w0) - 1.5(1 - w0) ... solve linear system:
		w1 := (2*(1-w0) - (target - w0)) / 0.5
		w2 := 1 - w0 - w1
		p := Portfolio{Assets: as, Weights: []float64{w0, w1, w2}}
		if !mathx.AlmostEqual(p.Return(), target, 1e-9) {
			t.Fatal("parametrization broken")
		}
		v, _ := p.Variance(cov)
		if v < optVar-1e-9 {
			t.Fatalf("random same-return portfolio has variance %v < optimal %v", v, optVar)
		}
	}
}

func TestFrontierShape(t *testing.T) {
	as := assets(1.0, 1.5, 2.0)
	cov := diagCov(0.04, 0.09, 0.25)
	pts, err := Frontier(as, cov, 2.0, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 20 {
		t.Fatalf("points = %d", len(pts))
	}
	// Returns increase; risk is non-decreasing along the efficient branch.
	for i := 1; i < len(pts); i++ {
		if pts[i].Return <= pts[i-1].Return {
			t.Fatalf("returns not increasing at %d", i)
		}
		if pts[i].Risk < pts[i-1].Risk-1e-12 {
			t.Fatalf("risk decreasing on efficient branch at %d: %v < %v", i, pts[i].Risk, pts[i-1].Risk)
		}
	}
	// First point is the minimum-variance portfolio.
	mv, _ := MinimumVariance(as, cov)
	mvRisk, _ := mv.Risk(cov)
	if !mathx.AlmostEqual(pts[0].Risk, mvRisk, 1e-9) {
		t.Errorf("frontier start risk %v, min-variance %v", pts[0].Risk, mvRisk)
	}
	// Closed-form check: sigma^2(r) = (C r^2 - 2 A r + B)/D at the last point.
	if _, err := Frontier(as, cov, 0.5, 10); !errors.Is(err, ErrInfeasible) {
		t.Errorf("infeasible max return: %v", err)
	}
	if _, err := Frontier(as, cov, 2, 1); err == nil {
		t.Error("1 point accepted")
	}
}

func TestDegenerateEqualReturns(t *testing.T) {
	as := assets(1.5, 1.5, 1.5)
	cov := diagCov(1, 2, 3)
	p, err := Optimal(as, cov, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if !mathx.AlmostEqual(p.Return(), 1.5, 1e-9) {
		t.Errorf("return = %v", p.Return())
	}
	if _, err := Optimal(as, cov, 2.0); !errors.Is(err, ErrInfeasible) {
		t.Errorf("degenerate off-target: %v", err)
	}
}

func TestValidationErrors(t *testing.T) {
	if _, err := MinimumVariance(nil, nil); !errors.Is(err, ErrNoAssets) {
		t.Errorf("no assets: %v", err)
	}
	as := assets(1, 2)
	if _, err := MinimumVariance(as, matrix.New(3, 3)); !errors.Is(err, ErrBadCovariance) {
		t.Errorf("shape mismatch: %v", err)
	}
	// Non-finite covariance entries are rejected before any solve.
	bad, _ := matrix.FromRows([][]float64{{1, math.NaN()}, {math.NaN(), 1}})
	if _, err := MinimumVariance(as, bad); !errors.Is(err, ErrBadCovariance) {
		t.Errorf("nan covariance: %v", err)
	}
	inf, _ := matrix.FromRows([][]float64{{math.Inf(1), 0}, {0, 1}})
	if _, err := MinimumVariance(as, inf); !errors.Is(err, ErrBadCovariance) {
		t.Errorf("inf covariance: %v", err)
	}
}

// TestMinimumVarianceSingularCovariance pins the degenerate-market contract:
// all-identical hosts (perfectly correlated returns, a singular covariance)
// have no unique minimum-variance portfolio, so the optimizer must hand back
// the equal-weight portfolio — finite weights summing to 1, never NaN.
func TestMinimumVarianceSingularCovariance(t *testing.T) {
	for _, tc := range []struct {
		name string
		cov  [][]float64
	}{
		{"identical hosts", [][]float64{{1, 1, 1}, {1, 1, 1}, {1, 1, 1}}},
		{"zero variance", [][]float64{{0, 0, 0}, {0, 0, 0}, {0, 0, 0}}},
		{"near-singular", [][]float64{
			{1, 1 - 1e-15, 1},
			{1 - 1e-15, 1, 1},
			{1, 1, 1},
		}},
	} {
		cov, err := matrix.FromRows(tc.cov)
		if err != nil {
			t.Fatal(err)
		}
		as := assets(2, 2, 2)
		p, err := MinimumVariance(as, cov)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var sum float64
		for i, w := range p.Weights {
			if math.IsNaN(w) || math.IsInf(w, 0) {
				t.Fatalf("%s: weight %d = %v", tc.name, i, w)
			}
			if math.Abs(w-1.0/3.0) > 1e-9 {
				t.Errorf("%s: weight %d = %v, want equal share 1/3", tc.name, i, w)
			}
			sum += w
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("%s: weights sum to %v", tc.name, sum)
		}
	}
	// The same degeneracy arriving via a real price series: three hosts whose
	// spot prices moved in lockstep.
	series := make([][]float64, 3)
	for i := range series {
		series[i] = []float64{1, 2, 1.5, 2.5, 1, 2}
	}
	cov, err := CovarianceFromSeries(series)
	if err != nil {
		t.Fatal(err)
	}
	p, err := MinimumVariance(assets(1, 1, 1), cov)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range p.Weights {
		if math.IsNaN(w) || math.IsInf(w, 0) {
			t.Fatalf("lockstep series: weight %d = %v", i, w)
		}
	}
}

func TestCovarianceFromSeries(t *testing.T) {
	series := [][]float64{
		{1, 2, 3, 4},
		{4, 3, 2, 1},
	}
	cov, err := CovarianceFromSeries(series)
	if err != nil {
		t.Fatal(err)
	}
	// Var of 1..4 with n-1: 5/3; covariance: -5/3.
	if !mathx.AlmostEqual(cov.At(0, 0), 5.0/3, 1e-12) {
		t.Errorf("var = %v", cov.At(0, 0))
	}
	if !mathx.AlmostEqual(cov.At(0, 1), -5.0/3, 1e-12) {
		t.Errorf("cov = %v", cov.At(0, 1))
	}
	if cov.At(0, 1) != cov.At(1, 0) {
		t.Error("not symmetric")
	}
	means := MeansFromSeries(series)
	if means[0] != 2.5 || means[1] != 2.5 {
		t.Errorf("means = %v", means)
	}
	if _, err := CovarianceFromSeries(nil); err == nil {
		t.Error("empty accepted")
	}
	if _, err := CovarianceFromSeries([][]float64{{1}}); err == nil {
		t.Error("single observation accepted")
	}
	if _, err := CovarianceFromSeries([][]float64{{1, 2}, {1}}); err == nil {
		t.Error("ragged series accepted")
	}
}

// TestRiskFreeDownside is the Figure 5 shape in miniature: simulate hosts
// with heterogeneous variance and verify the min-variance portfolio has a
// better worst-case (downside) aggregate performance than equal shares.
func TestRiskFreeDownside(t *testing.T) {
	src := rng.New(2006)
	const nHosts, steps = 10, 200
	mus := make([]float64, nHosts)
	sds := make([]float64, nHosts)
	for i := range mus {
		mus[i] = src.Uniform(4, 6)
		sds[i] = src.Uniform(0.05, 1.5)
	}
	series := make([][]float64, nHosts)
	for i := range series {
		series[i] = make([]float64, steps)
		for k := range series[i] {
			series[i][k] = src.Normal(mus[i], sds[i])
		}
	}
	cov, err := CovarianceFromSeries(series)
	if err != nil {
		t.Fatal(err)
	}
	means := MeansFromSeries(series)
	as := make([]Asset, nHosts)
	for i := range as {
		as[i] = Asset{ID: fmt.Sprintf("h%d", i), Return: means[i]}
	}
	rf, err := MinimumVariance(as, cov)
	if err != nil {
		t.Fatal(err)
	}
	eq, _ := EqualShares(as)

	perf := func(p Portfolio, k int) float64 {
		var s float64
		for i := range as {
			s += p.Weights[i] * series[i][k]
		}
		return s
	}
	worstRF, worstEQ := math.Inf(1), math.Inf(1)
	for k := 0; k < steps; k++ {
		if v := perf(rf, k); v < worstRF {
			worstRF = v
		}
		if v := perf(eq, k); v < worstEQ {
			worstEQ = v
		}
	}
	if worstRF <= worstEQ {
		t.Errorf("risk-free worst case %v not better than equal-share %v", worstRF, worstEQ)
	}
}

func BenchmarkFrontier(b *testing.B) {
	src := rng.New(1)
	n := 10
	as := make([]Asset, n)
	series := make([][]float64, n)
	for i := range as {
		as[i] = Asset{ID: fmt.Sprintf("h%d", i), Return: src.Uniform(1, 2)}
		series[i] = make([]float64, 100)
		for k := range series[i] {
			series[i][k] = src.Normal(as[i].Return, 0.3)
		}
	}
	cov, err := CovarianceFromSeries(series)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Frontier(as, cov, 2.5, 50); err != nil {
			b.Fatal(err)
		}
	}
}
