package rng

import (
	"fmt"
	"math"
	"testing"

	"tycoongrid/internal/mathx"
)

// moments draws n variates and returns their sample mean and variance.
func moments(n int, draw func() float64) (mean, variance float64) {
	var w mathx.Welford
	for i := 0; i < n; i++ {
		w.Add(draw())
	}
	return w.Mean(), w.SampleVariance()
}

func TestDeterminism(t *testing.T) {
	a, b := New(123), New(123)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed must produce the same stream")
		}
	}
	c := New(124)
	same := true
	a2 := New(123)
	for i := 0; i < 10; i++ {
		if a2.Float64() != c.Float64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds should diverge")
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(1)
	child := parent.Split()
	// Drawing from the child must not change the parent's future stream
	// relative to a parent that splits but never uses the child.
	parent2 := New(1)
	_ = parent2.Split()
	for i := 0; i < 50; i++ {
		_ = child.Float64()
	}
	for i := 0; i < 50; i++ {
		if parent.Float64() != parent2.Float64() {
			t.Fatal("child draws perturbed the parent stream")
		}
	}
}

func TestUniformRange(t *testing.T) {
	s := New(5)
	for i := 0; i < 1000; i++ {
		v := s.Uniform(2, 3)
		if v < 2 || v >= 3 {
			t.Fatalf("Uniform out of range: %v", v)
		}
	}
	mean, _ := moments(200000, func() float64 { return s.Uniform(2, 3) })
	if !mathx.AlmostEqual(mean, 2.5, 0.01) {
		t.Errorf("uniform mean = %v", mean)
	}
}

func TestNormalMoments(t *testing.T) {
	s := New(7)
	mean, v := moments(200000, func() float64 { return s.Normal(0.5, 0.15) })
	if !mathx.AlmostEqual(mean, 0.5, 0.005) {
		t.Errorf("normal mean = %v", mean)
	}
	if !mathx.AlmostEqual(v, 0.15*0.15, 0.001) {
		t.Errorf("normal variance = %v, want %v", v, 0.15*0.15)
	}
}

func TestExponentialMoments(t *testing.T) {
	s := New(11)
	mean, v := moments(300000, func() float64 { return s.Exponential(2) })
	if !mathx.AlmostEqual(mean, 0.5, 0.01) {
		t.Errorf("exp mean = %v, want 0.5", mean)
	}
	if !mathx.AlmostEqual(v, 0.25, 0.01) {
		t.Errorf("exp variance = %v, want 0.25", v)
	}
	for i := 0; i < 1000; i++ {
		if s.Exponential(2) < 0 {
			t.Fatal("exponential draw negative")
		}
	}
}

func TestGammaMoments(t *testing.T) {
	s := New(13)
	// Gamma(k=3, theta=2): mean 6, variance 12.
	mean, v := moments(300000, func() float64 { return s.Gamma(3, 2) })
	if !mathx.AlmostEqual(mean, 6, 0.05) {
		t.Errorf("gamma mean = %v, want 6", mean)
	}
	if !mathx.AlmostEqual(v, 12, 0.3) {
		t.Errorf("gamma variance = %v, want 12", v)
	}
}

func TestGammaSmallShape(t *testing.T) {
	s := New(17)
	// Gamma(k=0.5, theta=1): mean 0.5, variance 0.5.
	mean, v := moments(300000, func() float64 { return s.Gamma(0.5, 1) })
	if !mathx.AlmostEqual(mean, 0.5, 0.01) {
		t.Errorf("gamma(0.5) mean = %v", mean)
	}
	if !mathx.AlmostEqual(v, 0.5, 0.02) {
		t.Errorf("gamma(0.5) variance = %v", v)
	}
}

func TestBetaMoments(t *testing.T) {
	s := New(19)
	// Beta(5, 1): mean 5/6, variance 5/(36*7).
	mean, v := moments(300000, func() float64 { return s.Beta(5, 1) })
	if !mathx.AlmostEqual(mean, 5.0/6, 0.005) {
		t.Errorf("beta mean = %v, want %v", mean, 5.0/6)
	}
	wantVar := 5.0 / (36 * 7)
	if !mathx.AlmostEqual(v, wantVar, 0.002) {
		t.Errorf("beta variance = %v, want %v", v, wantVar)
	}
	for i := 0; i < 1000; i++ {
		b := s.Beta(5, 1)
		if b < 0 || b > 1 {
			t.Fatalf("beta out of [0,1]: %v", b)
		}
	}
}

func TestLogNormalMoments(t *testing.T) {
	s := New(23)
	mu, sigma := 0.0, 0.25
	wantMean := math.Exp(mu + sigma*sigma/2)
	mean, _ := moments(300000, func() float64 { return s.LogNormal(mu, sigma) })
	if !mathx.AlmostEqual(mean, wantMean, 0.01) {
		t.Errorf("lognormal mean = %v, want %v", mean, wantMean)
	}
}

func TestPanicsOnBadParameters(t *testing.T) {
	s := New(1)
	cases := []func(){
		func() { s.Exponential(0) },
		func() { s.Gamma(0, 1) },
		func() { s.Gamma(1, 0) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

// TestIntn: every draw lands in [0, n), and for small n each value turns up
// about 1/n of the time (within 5 % of its expected count over 60 000
// draws, ≈ 5 standard deviations at n = 10).
func TestIntn(t *testing.T) {
	for _, n := range []int{1, 2, 3, 10, 1000} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			s := New(int64(n))
			const draws = 60000
			counts := make([]int, n)
			for i := 0; i < draws; i++ {
				v := s.Intn(n)
				if v < 0 || v >= n {
					t.Fatalf("Intn(%d) = %d", n, v)
				}
				counts[v]++
			}
			if n > 10 {
				return
			}
			want := float64(draws) / float64(n)
			for v, c := range counts {
				if math.Abs(float64(c)-want) > 0.05*want {
					t.Errorf("value %d drawn %d times, want ≈ %.0f", v, c, want)
				}
			}
		})
	}
}

// TestInt63 draws non-negative values and replays them from the same seed.
func TestInt63(t *testing.T) {
	a, b := New(63), New(63)
	for i := 0; i < 1000; i++ {
		x, y := a.Int63(), b.Int63()
		if x < 0 {
			t.Fatalf("Int63 = %d", x)
		}
		if x != y {
			t.Fatalf("draw %d: %d then %d from the same seed", i, x, y)
		}
	}
}

// TestDeriveSeed pins the replication-seed contract: a pure function of
// (base, index), never negative, and distinct across indices and bases.
func TestDeriveSeed(t *testing.T) {
	t.Run("pure", func(t *testing.T) {
		for i := uint64(0); i < 100; i++ {
			if DeriveSeed(2006, i) != DeriveSeed(2006, i) {
				t.Fatalf("index %d: two calls disagree", i)
			}
		}
	})
	t.Run("non-negative", func(t *testing.T) {
		for _, base := range []int64{math.MinInt64, -1, 0, 1, math.MaxInt64} {
			for i := uint64(0); i < 1000; i++ {
				if s := DeriveSeed(base, i); s < 0 {
					t.Fatalf("DeriveSeed(%d, %d) = %d", base, i, s)
				}
			}
		}
	})
	t.Run("distinct", func(t *testing.T) {
		seen := make(map[int64]string)
		for _, base := range []int64{0, 1, 2006} {
			for i := uint64(0); i < 10000; i++ {
				s := DeriveSeed(base, i)
				at := fmt.Sprintf("(%d, %d)", base, i)
				if prev, dup := seen[s]; dup {
					t.Fatalf("%s and %s share seed %d", prev, at, s)
				}
				seen[s] = at
			}
		}
	})
	t.Run("streams differ", func(t *testing.T) {
		a, b := New(DeriveSeed(7, 0)), New(DeriveSeed(7, 1))
		same := 0
		for i := 0; i < 100; i++ {
			if a.Float64() == b.Float64() {
				same++
			}
		}
		if same > 0 {
			t.Errorf("%d of 100 draws equal across replications 0 and 1", same)
		}
	})
}

func BenchmarkGamma(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Gamma(5, 1)
	}
}

func BenchmarkBeta(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Beta(5, 1)
	}
}
