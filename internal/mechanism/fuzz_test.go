package mechanism

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"
)

// FuzzMechanismClear throws arbitrary — unsorted, duplicated, non-finite —
// bid sets and capacities at every mechanism and checks the safety
// invariants: no panic, total allocation within the host, price and pay
// rates finite and non-negative, lines sorted and unique. Each mechanism is
// cleared twice so stateful price updates (posted-price) are exercised too,
// the way a market clears: both rounds append to one dst buffer, which starts
// out holding a stale line, and each must equal what a twin instance clears
// into a fresh slice.
//
// Input encoding: mechIdx selects the mechanism; capMHz/reserve come in raw;
// each 9-byte chunk of data is one bid — 1 byte of bidder name, 8 bytes of
// IEEE-754 rate — so the fuzzer can reach negative, NaN and infinite rates.
func FuzzMechanismClear(f *testing.F) {
	rate := func(r float64) []byte {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(r))
		return b[:]
	}
	chunk := func(name byte, r float64) []byte { return append([]byte{name}, rate(r)...) }
	cat := func(chunks ...[]byte) []byte {
		var out []byte
		for _, c := range chunks {
			out = append(out, c...)
		}
		return out
	}
	f.Add(uint8(0), 3000.0, 1e-6, cat(chunk('a', 0.3), chunk('b', 0.1), chunk('c', 0.6)))
	f.Add(uint8(1), 3000.0, 0.01, cat(chunk('z', 5), chunk('a', 5)))
	f.Add(uint8(2), 2800.0, 1e-6, cat(chunk('a', 1), chunk('a', 2), chunk('b', math.NaN())))
	f.Add(uint8(2), 0.0, -1.0, cat(chunk('q', math.Inf(1))))
	f.Add(uint8(0), math.Inf(1), math.NaN(), []byte{})

	f.Fuzz(func(t *testing.T, mechIdx uint8, capMHz, reserve float64, data []byte) {
		names := Names()
		m, err := New(names[int(mechIdx)%len(names)], Config{})
		if err != nil {
			t.Fatal(err)
		}
		twin, _ := New(m.Name(), Config{})
		dst := []Line{{Bidder: "stale", Fraction: 1, PayRate: 1}}
		var bids []Bid
		for len(data) >= 9 {
			bids = append(bids, Bid{
				Bidder: string(rune(data[0])),
				Rate:   math.Float64frombits(binary.LittleEndian.Uint64(data[1:9])),
			})
			data = data[9:]
		}
		capacity := Capacity{MHz: capMHz, Reserve: reserve}
		for round := 0; round < 2; round++ {
			out := m.Clear(bids, capacity, dst...)
			if out.Lines != nil {
				dst = out.Lines
			}
			if math.IsNaN(out.Price) || math.IsInf(out.Price, 0) || out.Price < 0 {
				t.Fatalf("%s: price %v", m.Name(), out.Price)
			}
			var alloc float64
			for i, l := range out.Lines {
				if i > 0 && out.Lines[i-1].Bidder >= l.Bidder {
					t.Fatalf("%s: lines unsorted or duplicated at %d", m.Name(), i)
				}
				if math.IsNaN(l.Fraction) || l.Fraction < 0 || l.Fraction > 1 {
					t.Fatalf("%s: fraction %v", m.Name(), l.Fraction)
				}
				if math.IsNaN(l.PayRate) || math.IsInf(l.PayRate, 0) || l.PayRate < 0 {
					t.Fatalf("%s: pay rate %v", m.Name(), l.PayRate)
				}
				alloc += l.Fraction
			}
			if alloc > 1+1e-9 {
				t.Fatalf("%s: allocated %v of the host", m.Name(), alloc)
			}
			if want := twin.Clear(bids, capacity); out.Price != want.Price || !slices.Equal(out.Lines, want.Lines) {
				t.Fatalf("%s round %d: into a reused buffer %+v, into a fresh one %+v", m.Name(), round, out, want)
			}
		}
	})
}
