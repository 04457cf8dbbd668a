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
	"tycoongrid/internal/metrics"
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

// TestTransferPhasesCoverTheRequest sends 2 000 signed POST /transfers
// through bankd's handler stack and reads the layers' histograms back from the
// registry: the handler's http_transfer_phase_seconds (decode, encode) and
// the bank's bank_transfer_phase_seconds (verify, sign, ledger, wal) are each
// observed once per transfer, and together they account for between 0.8 and
// 1.0 of the summed http_request_duration_seconds of the same requests. The
// layers are disjoint spans of each request, so more than 1.0 is a layer
// counted twice; less than 0.8 is a layer of the request nobody times.
func TestTransferPhasesCoverTheRequest(t *testing.T) {
	const transfers, service = 2000, "phasecover"
	ca, err := pki.NewDeterministicCA("/O=Grid/CN=CA", [32]byte{1})
	if err != nil {
		t.Fatal(err)
	}
	bankID, err := ca.IssueDeterministic("/CN=Bank", [32]byte{2})
	if err != nil {
		t.Fatal(err)
	}
	alice, err := ca.IssueDeterministic("/CN=alice", [32]byte{3})
	if err != nil {
		t.Fatal(err)
	}
	b := bank.New(bankID, sim.WallClock{})
	for _, id := range []bank.AccountID{"alice", "bob"} {
		if _, err := b.CreateAccount(id, alice.Public()); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Deposit("alice", transfers*bank.Credit, "seed"); err != nil {
		t.Fatal(err)
	}
	bodies := make([][]byte, transfers)
	for i := range bodies {
		if bodies[i], err = transferBody(alice, fmt.Sprintf("cover-%05d", i)); err != nil {
			t.Fatal(err)
		}
	}
	h := ObservedMux(service, NewBankService(b))
	before := metrics.Default().Snapshot()
	for i, body := range bodies {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/transfers", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("transfer %d: %d %s", i, rec.Code, rec.Body)
		}
	}
	var request, layers float64
	for _, s := range metrics.Default().Snapshot().Delta(before).Histograms {
		switch {
		case s.Name == "http_request_duration_seconds" && s.Labels["service"] == service:
			if s.Count != transfers {
				t.Errorf("%s observed %d requests, want %d", metrics.SampleName(s.Name, s.Labels), s.Count, transfers)
			}
			request += s.Sum
		case s.Name == "http_transfer_phase_seconds" || s.Name == "bank_transfer_phase_seconds":
			if s.Count != transfers {
				t.Errorf("%s observed %d transfers, want %d", metrics.SampleName(s.Name, s.Labels), s.Count, transfers)
			}
			layers += s.Sum
		}
	}
	ratio := layers / request
	t.Logf("the six layers sum to %.3f s of %.3f s of requests (%.3f)", layers, request, ratio)
	if request == 0 || ratio < 0.8 || ratio > 1.0 {
		t.Errorf("the six layers sum to %.3f of the requests' latency, want 0.8 to 1.0", ratio)
	}
}
