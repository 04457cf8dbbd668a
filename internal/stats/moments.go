// Package stats implements the statistics layer of the paper's price
// prediction infrastructure (§4.5): exponentially smoothed moving-window
// moments about zero (mean, standard deviation, skewness, kurtosis) and the
// dual-array slot-table scheme that approximates the price distribution
// inside a moving time window.
//
// Each Auctioneer keeps one MovingMoments and one WindowDistribution per
// configured window (the paper uses an hour, a day and a week); both
// structures are O(1) per snapshot and never store the raw price series.
package stats

import (
	"fmt"
	"math"
)

// MovingMoments tracks the first four sample moments about zero inside a
// moving window of n snapshots using the paper's linear smoothing function
//
//	mu[0][p] = x0^p
//	mu[i][p] = alpha*mu[i-1][p] + (1-alpha)*xi^p,  alpha = 1 - 1/n.
//
// For window size 1 the previous moments are ignored, as the paper notes.
type MovingMoments struct {
	alpha float64
	count int64
	mu    [4]float64 // moments about zero, p = 1..4
}

// NewMovingMoments returns a tracker for a window of n snapshots.
func NewMovingMoments(n int) (*MovingMoments, error) {
	if n < 1 {
		return nil, fmt.Errorf("stats: window size %d, want >= 1", n)
	}
	return &MovingMoments{alpha: 1 - 1/float64(n)}, nil
}

// Observe records a price snapshot.
func (m *MovingMoments) Observe(x float64) {
	xp := x
	if m.count == 0 {
		for p := 0; p < 4; p++ {
			m.mu[p] = xp
			xp *= x
		}
	} else {
		for p := 0; p < 4; p++ {
			m.mu[p] = m.alpha*m.mu[p] + (1-m.alpha)*xp
			xp *= x
		}
	}
	m.count++
}

// Mean returns the smoothed window mean.
func (m *MovingMoments) Mean() float64 { return m.mu[0] }

// StdDev returns the smoothed window standard deviation
// sigma = sqrt(mu2 - mu1^2). Smoothing can transiently make the radicand
// slightly negative; it is clamped at zero.
func (m *MovingMoments) StdDev() float64 {
	v := m.mu[1] - m.mu[0]*m.mu[0]
	if v <= 0 {
		return 0
	}
	return math.Sqrt(v)
}

// Skewness returns the smoothed window skewness
// gamma1 = (mu3 - 3*mu1*mu2 + 2*mu1^3) / sigma^3.
// It returns 0 when the window variance vanishes.
func (m *MovingMoments) Skewness() float64 {
	s := m.StdDev()
	if s == 0 {
		return 0
	}
	mu1, mu2, mu3 := m.mu[0], m.mu[1], m.mu[2]
	return (mu3 - 3*mu1*mu2 + 2*mu1*mu1*mu1) / (s * s * s)
}

// Kurtosis returns the smoothed window excess kurtosis
// gamma2 = (mu4 - 4*mu3*mu1 + 6*mu2*mu1^2 - 3*mu1^4) / sigma^4 - 3.
// It returns 0 when the window variance vanishes.
func (m *MovingMoments) Kurtosis() float64 {
	s := m.StdDev()
	if s == 0 {
		return 0
	}
	mu1, mu2, mu3, mu4 := m.mu[0], m.mu[1], m.mu[2], m.mu[3]
	num := mu4 - 4*mu3*mu1 + 6*mu2*mu1*mu1 - 3*mu1*mu1*mu1*mu1
	return num/(s*s*s*s) - 3
}

// Snapshot bundles the four derived window statistics for reporting to the
// prediction clients.
type Snapshot struct {
	Mean     float64
	StdDev   float64
	Skewness float64
	Kurtosis float64
	Count    int64
}

// Snapshot returns the current derived statistics.
func (m *MovingMoments) Snapshot() Snapshot {
	return Snapshot{
		Mean:     m.Mean(),
		StdDev:   m.StdDev(),
		Skewness: m.Skewness(),
		Kurtosis: m.Kurtosis(),
		Count:    m.count,
	}
}

// Describe summarizes a raw sample (used by the experiment harnesses to
// report exact rather than smoothed statistics).
type Describe struct {
	N        int
	Mean     float64
	StdDev   float64
	Min      float64
	Max      float64
	Skewness float64
	Kurtosis float64
}

// DescribeSample computes exact sample statistics of xs. An empty sample
// yields a zero Describe.
func DescribeSample(xs []float64) Describe {
	d := Describe{N: len(xs)}
	if d.N == 0 {
		return d
	}
	d.Min, d.Max = xs[0], xs[0]
	var sum float64
	for _, x := range xs {
		sum += x
		if x < d.Min {
			d.Min = x
		}
		if x > d.Max {
			d.Max = x
		}
	}
	d.Mean = sum / float64(d.N)
	var m2, m3, m4 float64
	for _, x := range xs {
		dx := x - d.Mean
		m2 += dx * dx
		m3 += dx * dx * dx
		m4 += dx * dx * dx * dx
	}
	m2 /= float64(d.N)
	m3 /= float64(d.N)
	m4 /= float64(d.N)
	d.StdDev = math.Sqrt(m2)
	if m2 > 0 {
		d.Skewness = m3 / math.Pow(m2, 1.5)
		d.Kurtosis = m4/(m2*m2) - 3
	}
	return d
}

// Percentile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. xs must be sorted ascending.
func Percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}
