package mechanism

import (
	"math"
	"testing"

	"tycoongrid/internal/rng"
	"tycoongrid/internal/sla"
)

// oracleUnits splits testCap into whole units. Every oracle instance has
// segment widths in whole units, so the continuous problem's optimum — whole
// segments filled, the last one up to what is left — lies on the grid, and a
// dynamic program over units is exact rather than an approximation.
const oracleUnits = 60

// oracleAllocate maximizes reported welfare by dynamic programming over the
// capacity in whole units, with no sorting of segments: best[i][c] is the
// most the first i bidders are worth on c units. skip excludes one bidder
// (-1 for nobody). It returns the welfare and each bidder's units.
func oracleAllocate(vals []sla.Valuation, unit float64, skip int) (float64, []int) {
	n := len(vals)
	best := make([][]float64, n+1)
	take := make([][]int, n+1)
	best[0] = make([]float64, oracleUnits+1)
	for i := 1; i <= n; i++ {
		best[i] = make([]float64, oracleUnits+1)
		take[i] = make([]int, oracleUnits+1)
		for c := 0; c <= oracleUnits; c++ {
			best[i][c] = best[i-1][c]
			if i-1 == skip {
				continue
			}
			for k := 1; k <= c; k++ {
				if w := best[i-1][c-k] + vals[i-1].ValueRate(float64(k)*unit); w > best[i][c] {
					best[i][c], take[i][c] = w, k
				}
			}
		}
	}
	q := make([]int, n)
	for i, c := n, oracleUnits; i > 0; i-- {
		q[i-1] = take[i][c]
		c -= take[i][c]
	}
	return best[n][oracleUnits], q
}

// oracleVCG is SNIPPETS.md's get_VCG_allocation_and_prices over the DP:
// solve with every bidder, re-solve without each, and charge each bidder the
// welfare the others lose by its presence, W₋ᵢ − (W − vᵢ).
func oracleVCG(vals []sla.Valuation, unit float64) (q []int, pay []float64) {
	total, q := oracleAllocate(vals, unit, -1)
	pay = make([]float64, len(vals))
	for i := range vals {
		without, _ := oracleAllocate(vals, unit, i)
		pay[i] = without - (total - vals[i].ValueRate(float64(q[i])*unit))
	}
	return q, pay
}

// oracleBids draws up to 5 bidders of up to 3 segments each, widths in whole
// units and marginals strictly falling; one bidder in four reports only a
// rate, whose synthetic valuation (three thirds of the host) is on the grid.
func oracleBids(src *rng.Source, unit float64) []Bid {
	n := 1 + src.Intn(5)
	bids := make([]Bid, n)
	for i := range bids {
		bids[i] = Bid{Bidder: string(rune('a' + i)), Rate: src.Uniform(0.001, 2)}
		if src.Intn(4) == 0 {
			continue
		}
		v := sla.Valuation{}
		marginal := src.Uniform(1e-4, 1e-2)
		for s := 1 + src.Intn(3); s > 0; s-- {
			v.Segments = append(v.Segments, sla.ValuationSegment{
				WidthMHz: float64(1+src.Intn(oracleUnits/2)) * unit, Marginal: marginal})
			marginal *= src.Uniform(0.05, 0.95)
		}
		bids[i].Valuation = &v
	}
	return bids
}

// TestVCGMatchesExactOracle checks vcg.Clear's allocation and payments
// against the exact oracle on seeded instances of at most 5 bidders x 3
// segments. The oracle shares nothing with the mechanism but the valuations:
// no greedy fill, no segment sort, no clamping.
func TestVCGMatchesExactOracle(t *testing.T) {
	const tol = 1e-9
	unit := testCap.MHz / oracleUnits
	src := rng.New(rng.DeriveSeed(2006, 26))
	m, _ := New(VCG, Config{})
	for trial := 0; trial < 300; trial++ {
		bids := oracleBids(src, unit)
		vals := make([]sla.Valuation, len(bids))
		for i, b := range bids {
			vals[i] = valuationOf(b, testCap.MHz)
		}
		q, pay := oracleVCG(vals, unit)
		out := m.Clear(bids, testCap)
		for i, b := range bids {
			l, ok := out.Line(b.Bidder)
			if !ok {
				t.Fatalf("trial %d: no line for %s", trial, b.Bidder)
			}
			if want := float64(q[i]) / oracleUnits; math.Abs(l.Fraction-want) > tol {
				t.Errorf("trial %d: %s gets %.9f of the host, oracle %.9f (%d units)", trial, b.Bidder, l.Fraction, want, q[i])
			}
			if math.Abs(l.PayRate-pay[i]) > tol {
				t.Errorf("trial %d: %s pays %.12f, oracle %.12f", trial, b.Bidder, l.PayRate, pay[i])
			}
		}
	}
}
