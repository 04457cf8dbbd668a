// Package portfolio implements the risk-management prediction model of the
// paper's §4.4: Markowitz mean-variance analysis over hosts. The "return" of
// a host is its performance per money unit — CPU cycles per second delivered
// per money paid per second, i.e. the inverse of the spot price — and the
// risk is the variance of that return. The package computes the minimum
// variance ("risk free") portfolio, the efficient frontier via the standard
// closed-form matrix equations, and utilities to compare portfolios, which
// Figure 5 uses to show the risk-free portfolio's smaller downside risk
// versus equal shares.
package portfolio

import (
	"errors"
	"fmt"
	"math"

	"tycoongrid/internal/matrix"
)

// Asset is one candidate host.
type Asset struct {
	ID     string
	Return float64 // mean performance per money unit (1/price)
}

// Portfolio is a weight vector over assets; weights sum to 1.
type Portfolio struct {
	Assets  []Asset
	Weights []float64
}

// Errors returned by the optimizer.
var (
	ErrNoAssets      = errors.New("portfolio: no assets")
	ErrBadCovariance = errors.New("portfolio: covariance matrix invalid")
	ErrInfeasible    = errors.New("portfolio: target return outside feasible range")
)

// validate checks assets/covariance shape agreement.
func validate(assets []Asset, cov *matrix.Matrix) error {
	if len(assets) == 0 {
		return ErrNoAssets
	}
	if cov == nil || cov.Rows() != len(assets) || cov.Cols() != len(assets) {
		return fmt.Errorf("%w: want %dx%d", ErrBadCovariance, len(assets), len(assets))
	}
	return nil
}

// MinimumVariance returns the paper's "risk free portfolio": the weights
// w = Sigma^-1 * 1 / (1' * Sigma^-1 * 1) minimizing portfolio variance
// regardless of returns.
//
// A singular or near-singular covariance — identical hosts, or a window
// where prices never moved — has no unique minimizer: every convex
// combination has the same variance, so the equal-weight portfolio is
// returned rather than an error (and never NaN/Inf weights, which a naive
// solve of such a matrix produces). Covariances with non-finite entries are
// still rejected with ErrBadCovariance.
func MinimumVariance(assets []Asset, cov *matrix.Matrix) (Portfolio, error) {
	if err := validate(assets, cov); err != nil {
		return Portfolio{}, err
	}
	n := len(assets)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if v := cov.At(i, j); math.IsNaN(v) || math.IsInf(v, 0) {
				return Portfolio{}, fmt.Errorf("%w: non-finite entry %v at (%d,%d)", ErrBadCovariance, v, i, j)
			}
		}
	}
	ones := make([]float64, n)
	for i := range ones {
		ones[i] = 1
	}
	sInvOnes, err := matrix.Solve(cov, ones)
	if err != nil {
		// Singular but finite: degenerate to equal shares (see above).
		return EqualShares(assets)
	}
	denom := matrix.VecSum(sInvOnes)
	if denom == 0 || math.IsNaN(denom) || math.IsInf(denom, 0) {
		return EqualShares(assets)
	}
	w := make([]float64, n)
	for i := range w {
		w[i] = sInvOnes[i] / denom
		if math.IsNaN(w[i]) || math.IsInf(w[i], 0) {
			// Near-singular solves can pass the solver's pivot tolerance yet
			// overflow a component; same degeneracy, same fallback.
			return EqualShares(assets)
		}
	}
	return Portfolio{Assets: assets, Weights: w}, nil
}

// EqualShares returns the uniform portfolio Figure 5 compares against.
func EqualShares(assets []Asset) (Portfolio, error) {
	if len(assets) == 0 {
		return Portfolio{}, ErrNoAssets
	}
	w := make([]float64, len(assets))
	for i := range w {
		w[i] = 1 / float64(len(assets))
	}
	return Portfolio{Assets: assets, Weights: w}, nil
}

// Return is the portfolio's expected return: sum_i w_i * mu_i.
func (p Portfolio) Return() float64 {
	var r float64
	for i, a := range p.Assets {
		r += p.Weights[i] * a.Return
	}
	return r
}

// Variance returns w' * Sigma * w.
func (p Portfolio) Variance(cov *matrix.Matrix) (float64, error) {
	if err := validate(p.Assets, cov); err != nil {
		return 0, err
	}
	sw, err := cov.MulVec(p.Weights)
	if err != nil {
		return 0, err
	}
	return matrix.VecDot(p.Weights, sw), nil
}

// Risk returns the portfolio standard deviation.
func (p Portfolio) Risk(cov *matrix.Matrix) (float64, error) {
	v, err := p.Variance(cov)
	if err != nil {
		return 0, err
	}
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v), nil
}

// FrontierPoint is one point of the efficient frontier.
type FrontierPoint struct {
	Return float64
	Risk   float64
}

// scalars computes the classic A, B, C, D constants of the closed-form
// frontier: A = 1'S^-1 mu, B = mu'S^-1 mu, C = 1'S^-1 1, D = BC - A^2.
func scalars(assets []Asset, cov *matrix.Matrix) (a, b, c, d float64, sInvMu, sInvOnes []float64, err error) {
	n := len(assets)
	mu := make([]float64, n)
	ones := make([]float64, n)
	for i := range assets {
		mu[i] = assets[i].Return
		ones[i] = 1
	}
	sInvMu, err = matrix.Solve(cov, mu)
	if err != nil {
		return 0, 0, 0, 0, nil, nil, fmt.Errorf("%w: %v", ErrBadCovariance, err)
	}
	sInvOnes, err = matrix.Solve(cov, ones)
	if err != nil {
		return 0, 0, 0, 0, nil, nil, fmt.Errorf("%w: %v", ErrBadCovariance, err)
	}
	a = matrix.VecDot(ones, sInvMu)
	b = matrix.VecDot(mu, sInvMu)
	c = matrix.VecDot(ones, sInvOnes)
	d = b*c - a*a
	return a, b, c, d, sInvMu, sInvOnes, nil
}

// Optimal returns the minimum-variance portfolio achieving expected return
// target: w = lambda*S^-1*mu + gamma*S^-1*1 with lambda = (C*r - A)/D,
// gamma = (B - A*r)/D.
func Optimal(assets []Asset, cov *matrix.Matrix, target float64) (Portfolio, error) {
	if err := validate(assets, cov); err != nil {
		return Portfolio{}, err
	}
	a, b, c, d, sInvMu, sInvOnes, err := scalars(assets, cov)
	if err != nil {
		return Portfolio{}, err
	}
	if d <= 1e-12 {
		// Degenerate frontier (all assets share one return): only the
		// minimum-variance portfolio exists.
		mv, err := MinimumVariance(assets, cov)
		if err != nil {
			return Portfolio{}, err
		}
		if math.Abs(target-mv.Return()) > 1e-9*(1+math.Abs(target)) {
			return Portfolio{}, ErrInfeasible
		}
		return mv, nil
	}
	lambda := (c*target - a) / d
	gamma := (b - a*target) / d
	w := make([]float64, len(assets))
	for i := range w {
		w[i] = lambda*sInvMu[i] + gamma*sInvOnes[i]
	}
	return Portfolio{Assets: assets, Weights: w}, nil
}

// Frontier samples the efficient frontier at `points` target returns from
// the minimum-variance portfolio's return up to maxReturn. Frontier variance
// follows sigma^2(r) = (C r^2 - 2 A r + B) / D.
func Frontier(assets []Asset, cov *matrix.Matrix, maxReturn float64, points int) ([]FrontierPoint, error) {
	if err := validate(assets, cov); err != nil {
		return nil, err
	}
	if points < 2 {
		return nil, errors.New("portfolio: need at least 2 frontier points")
	}
	mv, err := MinimumVariance(assets, cov)
	if err != nil {
		return nil, err
	}
	r0 := mv.Return()
	if maxReturn <= r0 {
		return nil, fmt.Errorf("%w: max return %v <= minimum-variance return %v", ErrInfeasible, maxReturn, r0)
	}
	out := make([]FrontierPoint, 0, points)
	for i := 0; i < points; i++ {
		r := r0 + (maxReturn-r0)*float64(i)/float64(points-1)
		p, err := Optimal(assets, cov, r)
		if err != nil {
			return nil, err
		}
		risk, err := p.Risk(cov)
		if err != nil {
			return nil, err
		}
		out = append(out, FrontierPoint{Return: r, Risk: risk})
	}
	return out, nil
}

// CovarianceFromSeries estimates the sample covariance matrix of per-asset
// return series (each series the same length, one row per asset).
func CovarianceFromSeries(series [][]float64) (*matrix.Matrix, error) {
	n := len(series)
	if n == 0 {
		return nil, ErrNoAssets
	}
	m := len(series[0])
	if m < 2 {
		return nil, errors.New("portfolio: need at least 2 observations")
	}
	for i, s := range series {
		if len(s) != m {
			return nil, fmt.Errorf("portfolio: series %d length %d, want %d", i, len(s), m)
		}
	}
	means := make([]float64, n)
	for i, s := range series {
		var sum float64
		for _, v := range s {
			sum += v
		}
		means[i] = sum / float64(m)
	}
	cov := matrix.New(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			var s float64
			for k := 0; k < m; k++ {
				s += (series[i][k] - means[i]) * (series[j][k] - means[j])
			}
			v := s / float64(m-1)
			cov.Set(i, j, v)
			cov.Set(j, i, v)
		}
	}
	return cov, nil
}

// MeansFromSeries returns each series' mean, for building Assets alongside
// CovarianceFromSeries.
func MeansFromSeries(series [][]float64) []float64 {
	out := make([]float64, len(series))
	for i, s := range series {
		var sum float64
		for _, v := range s {
			sum += v
		}
		if len(s) > 0 {
			out[i] = sum / float64(len(s))
		}
	}
	return out
}
