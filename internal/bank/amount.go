// Package bank implements the Tycoon Bank: the service that "maintains
// information on users like their credit balance and public keys" (paper
// §2.2). It provides accounts bound to Ed25519 public keys, sub-accounts
// (the broker creates one per verified transfer token), owner-signed
// transfers, bank-signed receipts, refunds, and a full audit ledger.
//
// Money is fixed-point: an Amount is an integer number of microcredits
// (1 credit = 1 "dollar" of the paper = 1_000_000 microcredits), so ledger
// arithmetic is exact and overflow is checked.
package bank

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Amount is a quantity of money in microcredits.
type Amount int64

// Credit is one credit ("dollar" in the paper's tables) in microcredits.
const Credit Amount = 1_000_000

// FromCredits converts a floating-point credit value to an Amount,
// rounding to the nearest microcredit. It returns an error when the value
// does not fit or is not finite.
func FromCredits(c float64) (Amount, error) {
	if math.IsNaN(c) || math.IsInf(c, 0) {
		return 0, fmt.Errorf("bank: non-finite amount %v", c)
	}
	v := c * float64(Credit)
	if v >= float64(math.MaxInt64) || v <= -float64(math.MaxInt64) {
		return 0, fmt.Errorf("bank: amount %v credits overflows", c)
	}
	return Amount(math.Round(v)), nil
}

// MustCredits is FromCredits for trusted constants; it panics on error.
func MustCredits(c float64) Amount {
	a, err := FromCredits(c)
	if err != nil {
		panic(err)
	}
	return a
}

// Credits returns the amount as a floating-point number of credits.
func (a Amount) Credits() float64 { return float64(a) / float64(Credit) }

// String renders the amount as a decimal credit value, e.g. "12.5".
func (a Amount) String() string {
	neg := a < 0
	if neg {
		a = -a
	}
	whole := a / Credit
	frac := a % Credit
	s := strconv.FormatInt(int64(whole), 10)
	if frac != 0 {
		f := fmt.Sprintf("%06d", int64(frac))
		f = strings.TrimRight(f, "0")
		s += "." + f
	}
	if neg {
		s = "-" + s
	}
	return s
}

// ParseAmount parses a decimal credit string ("12.5") into an Amount.
func ParseAmount(s string) (Amount, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, errors.New("bank: empty amount")
	}
	neg := false
	if s[0] == '+' || s[0] == '-' {
		neg = s[0] == '-'
		s = s[1:]
	}
	whole, frac, hasFrac := strings.Cut(s, ".")
	if whole == "" && (!hasFrac || frac == "") {
		return 0, fmt.Errorf("bank: malformed amount %q", s)
	}
	var w int64
	var err error
	if whole != "" {
		w, err = strconv.ParseInt(whole, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("bank: malformed amount %q", s)
		}
	}
	var f int64
	if hasFrac {
		if len(frac) > 6 {
			return 0, fmt.Errorf("bank: amount %q has sub-microcredit precision", s)
		}
		padded := frac + strings.Repeat("0", 6-len(frac))
		f, err = strconv.ParseInt(padded, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("bank: malformed amount %q", s)
		}
	}
	if w > math.MaxInt64/int64(Credit)-1 {
		return 0, fmt.Errorf("bank: amount %q overflows", s)
	}
	v := Amount(w)*Credit + Amount(f)
	if neg {
		v = -v
	}
	return v, nil
}

// addChecked returns a+b with overflow detection.
func addChecked(a, b Amount) (Amount, error) {
	s := a + b
	if (b > 0 && s < a) || (b < 0 && s > a) {
		return 0, errors.New("bank: amount overflow")
	}
	return s, nil
}
