package sla

import (
	"math"
	"testing"

	"tycoongrid/internal/rng"
)

func TestValuationValueRate(t *testing.T) {
	v := Valuation{Segments: []ValuationSegment{{100, 2}, {100, 1}, {50, 0.5}}}
	cases := []struct{ q, want float64 }{
		{-5, 0}, {0, 0}, {50, 100}, {100, 200}, {150, 250}, {200, 300},
		{225, 312.5}, {250, 325}, {1e6, 325},
	}
	for _, c := range cases {
		if got := v.ValueRate(c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("ValueRate(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestValuationValidate(t *testing.T) {
	bad := []Valuation{
		{Segments: []ValuationSegment{{WidthMHz: 0, Marginal: 1}}},
		{Segments: []ValuationSegment{{WidthMHz: -3, Marginal: 1}}},
		{Segments: []ValuationSegment{{WidthMHz: math.Inf(1), Marginal: 1}}},
		{Segments: []ValuationSegment{{WidthMHz: math.NaN(), Marginal: 1}}},
		{Segments: []ValuationSegment{{WidthMHz: 1, Marginal: -0.1}}},
		{Segments: []ValuationSegment{{WidthMHz: 1, Marginal: math.NaN()}}},
		{Segments: []ValuationSegment{{WidthMHz: 1, Marginal: math.Inf(1)}}},
		// Rising marginals violate concavity.
		{Segments: []ValuationSegment{{WidthMHz: 1, Marginal: 1}, {WidthMHz: 1, Marginal: 2}}},
	}
	for i, v := range bad {
		if err := v.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted invalid valuation %+v", i, v)
		}
	}
	good := []Valuation{
		{},
		{Segments: []ValuationSegment{{WidthMHz: 1, Marginal: 0}}},
		{Segments: []ValuationSegment{{WidthMHz: 1, Marginal: 2}, {WidthMHz: 5, Marginal: 2}}},
	}
	for i, v := range good {
		if err := v.Validate(); err != nil {
			t.Errorf("case %d: Validate rejected valid valuation: %v", i, err)
		}
	}
}

func TestValuationFromRate(t *testing.T) {
	v := ValuationFromRate(0.3, 3000)
	if err := v.Validate(); err != nil {
		t.Fatalf("derived valuation invalid: %v", err)
	}
	if got := v.ValueRate(3000); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("value at full capacity = %v, want the spend rate 0.3", got)
	}
	if got := v.ValueRate(1500); got <= 0.15 {
		t.Errorf("concave valuation should front-load value: half capacity worth %v <= half rate", got)
	}
	for _, v := range []Valuation{
		ValuationFromRate(0, 100),
		ValuationFromRate(-1, 100),
		ValuationFromRate(1, 0),
		ValuationFromRate(math.Inf(1), 100),
		ValuationFromRate(math.NaN(), 100),
	} {
		if len(v.Segments) != 0 {
			t.Errorf("degenerate input produced non-zero valuation %+v", v)
		}
	}
}

func TestValuationScale(t *testing.T) {
	v := Valuation{Segments: []ValuationSegment{{10, 2}, {10, 1}}}
	s := v.Scale(0.5)
	if err := s.Validate(); err != nil {
		t.Fatalf("scaled valuation invalid: %v", err)
	}
	if got := s.ValueRate(20); math.Abs(got-15) > 1e-12 {
		t.Errorf("scaled value = %v, want 15", got)
	}
}

func TestRandomValuationValid(t *testing.T) {
	src := rng.New(7)
	for i := 0; i < 500; i++ {
		v := RandomValuation(src, 2800)
		if err := v.Validate(); err != nil {
			t.Fatalf("RandomValuation produced invalid valuation: %v", err)
		}
		if v.ValueRate(math.Inf(1)) <= 0 {
			t.Fatalf("RandomValuation produced worthless valuation %+v", v)
		}
	}
}
