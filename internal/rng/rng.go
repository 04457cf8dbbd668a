// Package rng provides the deterministic random variate generators used by
// the workload generators and the prediction simulations: uniform, normal,
// exponential, gamma, beta and lognormal draws, all seeded explicitly
// so every experiment in the paper reproduction is replayable bit-for-bit.
//
// The Beta and Gamma samplers exist because Figure 7 of the paper validates
// the moving-window distribution approximation against Normal(0.5, 0.15),
// Exp(2) and Beta(5, 1) inputs.
package rng

import (
	"math"
	"math/rand"
)

// Source is a deterministic stream of random variates.
type Source struct {
	r *rand.Rand
}

// New returns a Source seeded with seed.
func New(seed int64) *Source {
	return &Source{r: rand.New(rand.NewSource(seed))}
}

// Split derives an independent child stream; useful to give each simulated
// host its own stream so adding hosts does not perturb existing ones.
func (s *Source) Split() *Source {
	return New(s.r.Int63())
}

// splitmix64 is the SplitMix64 finalizer (Steele, Lea & Flood, OOPSLA'14):
// a bijective avalanche mix whose outputs pass BigCrush even on sequential
// inputs, which is exactly the replication-seed use case.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// DeriveSeed maps (base, index) to an independent replication seed. Unlike
// Split it is stateless: replication i's seed depends only on the base seed
// and i, so a parallel worker pool can seed replications in any execution
// order and still reproduce the exact streams of a serial run. Results are
// non-negative so they survive round trips through flag parsing and CSV.
func DeriveSeed(base int64, index uint64) int64 {
	z := splitmix64(uint64(base) ^ splitmix64(index+0x632be59bd9b4e019))
	return int64(z >> 1) // clear the sign bit
}

// Float64 returns a uniform draw in [0, 1).
func (s *Source) Float64() float64 { return s.r.Float64() }

// Intn returns a uniform int in [0, n).
func (s *Source) Intn(n int) int { return s.r.Intn(n) }

// Int63 returns a non-negative uniform int64.
func (s *Source) Int63() int64 { return s.r.Int63() }

// Uniform returns a uniform draw in [lo, hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.r.Float64()
}

// Normal returns a draw from N(mu, sigma^2).
func (s *Source) Normal(mu, sigma float64) float64 {
	return mu + sigma*s.r.NormFloat64()
}

// Exponential returns a draw from Exp(rate); mean is 1/rate.
// It panics on rate <= 0; distribution parameters are validated by the
// experiment configuration layer before sampling.
func (s *Source) Exponential(rate float64) float64 {
	if rate <= 0 {
		panic("rng: Exponential requires rate > 0")
	}
	return s.r.ExpFloat64() / rate
}

// Gamma returns a draw from Gamma(shape k, scale theta) using the
// Marsaglia-Tsang squeeze method, with the Johnk boost for k < 1.
func (s *Source) Gamma(shape, scale float64) float64 {
	if shape <= 0 || scale <= 0 {
		panic("rng: Gamma requires positive shape and scale")
	}
	if shape < 1 {
		// Boost: Gamma(k) = Gamma(k+1) * U^(1/k).
		u := s.r.Float64()
		for u == 0 {
			u = s.r.Float64()
		}
		return s.Gamma(shape+1, scale) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		var x, v float64
		for {
			x = s.r.NormFloat64()
			v = 1 + c*x
			if v > 0 {
				break
			}
		}
		v = v * v * v
		u := s.r.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v * scale
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v * scale
		}
	}
}

// Beta returns a draw from Beta(a, b) via two gamma draws.
func (s *Source) Beta(a, b float64) float64 {
	x := s.Gamma(a, 1)
	y := s.Gamma(b, 1)
	return x / (x + y)
}

// LogNormal returns a draw whose logarithm is N(mu, sigma^2).
func (s *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(s.Normal(mu, sigma))
}
