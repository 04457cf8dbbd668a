// Package mathx provides the numerical primitives shared by the market's
// prediction stack: the standard normal distribution (CDF, PDF, quantile),
// numerically stable accumulators, and small helpers for root finding.
//
// Everything here is pure and allocation-free so it can run inside the
// auctioneer's 10-second reallocation loop without GC pressure.
package mathx

import (
	"errors"
	"math"
)

// Sqrt2Pi is sqrt(2*pi), the normalization constant of the normal PDF.
const Sqrt2Pi = 2.5066282746310005024157652848110452530069867406099

// NormalPDF returns the density of the standard normal distribution at x.
func NormalPDF(x float64) float64 {
	return math.Exp(-x*x/2) / Sqrt2Pi
}

// NormalCDF returns Phi(x), the standard normal cumulative distribution
// function, using the relation Phi(x) = erfc(-x/sqrt(2))/2 which is accurate
// in both tails.
func NormalCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// NormalQuantile returns Phi^-1(p), the probit function, for p in (0, 1).
// It uses Acklam's rational approximation refined with one step of Halley's
// method, giving roughly full double precision. It panics on p outside
// (0, 1); callers validate user input first.
func NormalQuantile(p float64) float64 {
	if !(p > 0 && p < 1) {
		panic("mathx: NormalQuantile requires 0 < p < 1")
	}
	x := acklam(p)
	// Halley refinement: e = Phi(x) - p; x -= e/phi(x) / (1 + x*e/(2*phi(x))).
	e := NormalCDF(x) - p
	u := e * Sqrt2Pi * math.Exp(x*x/2)
	x -= u / (1 + x*u/2)
	return x
}

// acklam is Peter Acklam's rational approximation to the probit function,
// accurate to about 1.15e-9 before refinement.
func acklam(p float64) float64 {
	var (
		a = [6]float64{
			-3.969683028665376e+01, 2.209460984245205e+02,
			-2.759285104469687e+02, 1.383577518672690e+02,
			-3.066479806614716e+01, 2.506628277459239e+00,
		}
		b = [5]float64{
			-5.447609879822406e+01, 1.615858368580409e+02,
			-1.556989798598866e+02, 6.680131188771972e+01,
			-1.328068155288572e+01,
		}
		c = [6]float64{
			-7.784894002430293e-03, -3.223964580411365e-01,
			-2.400758277161838e+00, -2.549732539343734e+00,
			4.374664141464968e+00, 2.938163982698783e+00,
		}
		d = [4]float64{
			7.784695709041462e-03, 3.224671290700398e-01,
			2.445134137142996e+00, 3.754408661907416e+00,
		}
	)
	const pLow = 0.02425
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-pLow:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
}

// StudentTQuantile returns the inverse CDF of Student's t distribution with
// df degrees of freedom at probability p in (0, 1) — the critical value
// behind the replication runner's confidence intervals. df = 1 and df = 2
// use the closed forms; larger df start from the Cornish-Fisher expansion
// around the normal quantile (Abramowitz & Stegun 26.7.5) and polish with
// Newton steps on the exact CDF. It panics on p outside (0, 1) or df < 1;
// callers validate user input first.
func StudentTQuantile(p float64, df int) float64 {
	if !(p > 0 && p < 1) {
		panic("mathx: StudentTQuantile requires 0 < p < 1")
	}
	if df < 1 {
		panic("mathx: StudentTQuantile requires df >= 1")
	}
	if p == 0.5 {
		return 0
	}
	switch df {
	case 1: // Cauchy
		return math.Tan(math.Pi * (p - 0.5))
	case 2:
		a := 2*p - 1
		return a * math.Sqrt2 / math.Sqrt(1-a*a)
	}
	z := NormalQuantile(p)
	v := float64(df)
	z2 := z * z
	t := z +
		z*(z2+1)/(4*v) +
		z*(5*z2*z2+16*z2+3)/(96*v*v) +
		z*(3*z2*z2*z2+19*z2*z2+17*z2-15)/(384*v*v*v) +
		z*(79*z2*z2*z2*z2+776*z2*z2*z2+1482*z2*z2-1920*z2-945)/(92160*v*v*v*v)
	for i := 0; i < 3; i++ {
		d := studentTPDF(t, v)
		if d == 0 {
			break
		}
		t -= (studentTCDF(t, v) - p) / d
	}
	return t
}

func studentTPDF(x, v float64) float64 {
	lg1, _ := math.Lgamma((v + 1) / 2)
	lg2, _ := math.Lgamma(v / 2)
	return math.Exp(lg1 - lg2 - 0.5*math.Log(v*math.Pi) - (v+1)/2*math.Log1p(x*x/v))
}

func studentTCDF(x, v float64) float64 {
	ib := regIncBeta(v/2, 0.5, v/(v+x*x))
	if x >= 0 {
		return 1 - ib/2
	}
	return ib / 2
}

// regIncBeta is the regularized incomplete beta function I_x(a, b),
// evaluated with the modified Lentz continued fraction.
func regIncBeta(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	bt := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log(1-x))
	if x < (a+1)/(a+b+2) {
		return bt * betaCF(a, b, x) / a
	}
	return 1 - bt*betaCF(b, a, 1-x)/b
}

func betaCF(a, b, x float64) float64 {
	const (
		eps  = 3e-16
		tiny = 1e-300
	)
	qab, qap, qam := a+b, a+1, a-1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	h := d
	for m := 1; m <= 200; m++ {
		fm := float64(m)
		aa := fm * (b - fm) * x / ((qam + 2*fm) * (a + 2*fm))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + 2*fm) * (qap + 2*fm))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

// ErrNoBracket is returned by Bisect when f(lo) and f(hi) have the same sign.
var ErrNoBracket = errors.New("mathx: root not bracketed")

// Bisect finds x in [lo, hi] with f(x) ~= 0 to within tol using bisection.
// f must be continuous and f(lo), f(hi) must have opposite signs.
func Bisect(f func(float64) float64, lo, hi, tol float64) (float64, error) {
	flo, fhi := f(lo), f(hi)
	if flo == 0 {
		return lo, nil
	}
	if fhi == 0 {
		return hi, nil
	}
	if (flo > 0) == (fhi > 0) {
		return 0, ErrNoBracket
	}
	for hi-lo > tol {
		mid := lo + (hi-lo)/2
		fm := f(mid)
		if fm == 0 {
			return mid, nil
		}
		if (fm > 0) == (flo > 0) {
			lo, flo = mid, fm
		} else {
			hi = mid
		}
	}
	return lo + (hi-lo)/2, nil
}

// Welford tracks a running mean and variance without storing samples,
// the "stateless" representation of §4.2 of the paper: only running sums
// are kept on the auctioneer.
type Welford struct {
	n    int64
	mean float64
	m2   float64
}

// Add incorporates a new observation.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of observations.
func (w *Welford) N() int64 { return w.n }

// Mean returns the running mean (0 when empty).
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the population variance (0 with fewer than 2 samples).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// SampleVariance returns the unbiased (n-1) variance.
func (w *Welford) SampleVariance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the population standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// AlmostEqual reports whether a and b are within tol of each other, treating
// NaN as never equal.
func AlmostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	return math.Abs(a-b) <= tol
}
