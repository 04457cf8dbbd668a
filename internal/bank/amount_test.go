package bank

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFromCredits(t *testing.T) {
	cases := []struct {
		in   float64
		want Amount
	}{
		{1, Credit},
		{0.5, 500_000},
		{100, 100 * Credit},
		{0.000001, 1},
		{-2.25, -2_250_000},
		{0, 0},
	}
	for _, c := range cases {
		got, err := FromCredits(c.in)
		if err != nil {
			t.Errorf("FromCredits(%v): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("FromCredits(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestFromCreditsErrors(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e19} {
		if _, err := FromCredits(v); err == nil {
			t.Errorf("FromCredits(%v): want error", v)
		}
	}
}

func TestMustCreditsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustCredits(NaN) did not panic")
		}
	}()
	MustCredits(math.NaN())
}

func TestAmountString(t *testing.T) {
	cases := []struct {
		in   Amount
		want string
	}{
		{Credit, "1"},
		{500_000, "0.5"},
		{12_500_000, "12.5"},
		{1, "0.000001"},
		{-2_250_000, "-2.25"},
		{0, "0"},
		{100 * Credit, "100"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestParseAmount(t *testing.T) {
	cases := []struct {
		in   string
		want Amount
	}{
		{"1", Credit},
		{"0.5", 500_000},
		{"12.5", 12_500_000},
		{".25", 250_000},
		{"-2.25", -2_250_000},
		{"+3", 3 * Credit},
		{" 7 ", 7 * Credit},
		{"0.000001", 1},
		{"100", 100 * Credit},
	}
	for _, c := range cases {
		got, err := ParseAmount(c.in)
		if err != nil {
			t.Errorf("ParseAmount(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseAmount(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestParseAmountErrors(t *testing.T) {
	for _, s := range []string{"", ".", "abc", "1.2.3", "0.0000001", "1e5", "9223372036854775807"} {
		if _, err := ParseAmount(s); err == nil {
			t.Errorf("ParseAmount(%q): want error", s)
		}
	}
}

func TestStringParseRoundTrip(t *testing.T) {
	f := func(v int64) bool {
		a := Amount(v % (1 << 50))
		got, err := ParseAmount(a.String())
		return err == nil && got == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCreditsRoundTrip(t *testing.T) {
	for _, a := range []Amount{0, 1, Credit, 42 * Credit, 123_456_789} {
		back, err := FromCredits(a.Credits())
		if err != nil || back != a {
			t.Errorf("round trip %v -> %v (%v)", a, back, err)
		}
	}
}

func TestAddChecked(t *testing.T) {
	if _, err := addChecked(MaxAmount, 1); err == nil {
		t.Error("want overflow error")
	}
	if _, err := addChecked(-MaxAmount, -2); err == nil {
		t.Error("want underflow error")
	}
	s, err := addChecked(40, 2)
	if err != nil || s != 42 {
		t.Errorf("addChecked = %v, %v", s, err)
	}
}

// Millicredit is a thousandth of a credit.
const Millicredit Amount = 1000

// MaxAmount is the largest representable amount.
const MaxAmount = Amount(math.MaxInt64)
