package bank

import (
	"bytes"
	"testing"

	"tycoongrid/internal/pki"
	"tycoongrid/internal/sim"
)

// FuzzParseAmount checks the money parser never panics, and that accepted
// values round-trip exactly through String — the property that makes the
// wire encoding safe for ledgers.
func FuzzParseAmount(f *testing.F) {
	for _, s := range []string{
		"0", "1", "-1", "12.5", ".25", "+3", "0.000001", "-0.5",
		"9999999999", "1.2.3", "1e5", "", ".", "-", "0.0000001",
		"92233720368547758.07",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		a, err := ParseAmount(in)
		if err != nil {
			return
		}
		back, err := ParseAmount(a.String())
		if err != nil {
			t.Fatalf("String() form rejected: %q -> %q: %v", in, a.String(), err)
		}
		if back != a {
			t.Fatalf("round trip changed value: %q -> %v -> %v", in, a, back)
		}
	})
}

// FuzzBankRecord feeds arbitrary bytes to WAL replay on a seeded two-account
// bank: replay never panics, a record it rejects leaves the bank's snapshot
// byte-identical, and the state after a record it accepts survives a snapshot
// round trip into a fresh bank byte for byte. The seed corpus holds one record
// of each kind and one of retired kind 5.
func FuzzBankRecord(f *testing.F) {
	ca, err := pki.NewDeterministicCA("/CN=CA", [32]byte{1})
	if err != nil {
		f.Fatal(err)
	}
	id, err := ca.IssueDeterministic("/CN=Bank", [32]byte{2})
	if err != nil {
		f.Fatal(err)
	}
	snapshot := func(b *Bank) []byte {
		b.mu.Lock()
		defer b.mu.Unlock()
		return b.encodeSnapshot()
	}
	f.Fuzz(func(t *testing.T, rec []byte) {
		b := New(id, sim.NewEngine())
		for _, a := range []AccountID{"alice", "bob"} {
			if _, err := b.CreateAccount(a, id.Public()); err != nil {
				t.Fatal(err)
			}
			if err := b.Deposit(a, 100*Credit, "seed"); err != nil {
				t.Fatal(err)
			}
		}
		before := snapshot(b)
		b.mu.Lock()
		err := b.applyRecord(rec)
		b.mu.Unlock()
		after := snapshot(b)
		if err != nil {
			if !bytes.Equal(before, after) {
				t.Fatalf("rejected record (%v) changed the bank", err)
			}
			return
		}
		fresh := New(id, sim.NewEngine())
		fresh.mu.Lock()
		err = fresh.restoreSnapshot(after)
		fresh.mu.Unlock()
		if err != nil {
			t.Fatalf("snapshot after an accepted record does not restore: %v", err)
		}
		if again := snapshot(fresh); !bytes.Equal(after, again) {
			t.Fatalf("snapshot after an accepted record is not byte-identical through restore")
		}
	})
}

// FuzzTokenDecode lives here logically with the codecs; see
// internal/token/fuzz_test.go for the transfer-token decoder fuzz.
