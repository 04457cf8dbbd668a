package httpapi

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"tycoongrid/internal/bank"
	"tycoongrid/internal/pki"
	"tycoongrid/internal/sim"
)

// FuzzTransferBody sends arbitrary bytes as the body of POST /transfers to a
// bank service over an in-memory two-account ledger. The service never
// panics, answers every body it rejects with a 4xx, never changes the money
// in the bank, and moves a balance only when it answers 200 — then by exactly
// the receipt's amount, from its payer to its payee. The seed corpus under
// testdata/fuzz holds a transfer alice signed, which the bank accepts, and
// bodies the bank must refuse: a forged signature, an overdraft, a transfer
// to oneself, an unknown account, a bad amount and malformed JSON.
func FuzzTransferBody(f *testing.F) {
	ca, err := pki.NewDeterministicCA("/O=Grid/CN=CA", [32]byte{1})
	if err != nil {
		f.Fatal(err)
	}
	bankID, err := ca.IssueDeterministic("/CN=Bank", [32]byte{2})
	if err != nil {
		f.Fatal(err)
	}
	accounts := []struct {
		id    bank.AccountID
		owner *pki.Identity
		grant bank.Amount
	}{{id: "alice", grant: 100 * bank.Credit}, {id: "bob", grant: 50 * bank.Credit}}
	for i := range accounts {
		if accounts[i].owner, err = ca.IssueDeterministic(pki.DN("/CN="+string(accounts[i].id)), [32]byte{byte(3 + i)}); err != nil {
			f.Fatal(err)
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		b := bank.New(bankID, sim.NewEngine())
		for _, a := range accounts {
			if _, err := b.CreateAccount(a.id, a.owner.Public()); err != nil {
				t.Fatal(err)
			}
			if err := b.Deposit(a.id, a.grant, "seed"); err != nil {
				t.Fatal(err)
			}
		}
		balances := func() map[bank.AccountID]bank.Amount {
			out := map[bank.AccountID]bank.Amount{}
			for _, a := range accounts {
				bal, err := b.Balance(a.id)
				if err != nil {
					t.Fatal(err)
				}
				out[a.id] = bal
			}
			return out
		}
		before, total := balances(), b.TotalMoney()

		rec := httptest.NewRecorder()
		NewBankService(b).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/transfers", bytes.NewReader(body)))

		if got := b.TotalMoney(); got != total {
			t.Fatalf("status %d: money in the bank went from %v to %v", rec.Code, total, got)
		}
		after := balances()
		if rec.Code != http.StatusOK {
			if rec.Code < 400 || rec.Code >= 500 {
				t.Fatalf("rejected body answered %d, want a 4xx: %s", rec.Code, rec.Body)
			}
			for a := range before {
				if after[a] != before[a] {
					t.Fatalf("rejected body (%d) moved %s from %v to %v", rec.Code, a, before[a], after[a])
				}
			}
			return
		}
		var rw ReceiptWire
		if err := json.Unmarshal(rec.Body.Bytes(), &rw); err != nil {
			t.Fatalf("200 without a receipt: %v: %s", err, rec.Body)
		}
		receipt, err := rw.ToReceipt()
		if err != nil {
			t.Fatalf("200 with an unreadable receipt: %v", err)
		}
		if !bank.VerifyReceipt(b.PublicKey(), receipt) {
			t.Fatalf("200 with a receipt that does not verify: %+v", rw)
		}
		for a := range before {
			want := before[a]
			if a == receipt.From {
				want -= receipt.Amount
			}
			if a == receipt.To {
				want += receipt.Amount
			}
			if after[a] != want {
				t.Fatalf("accepted transfer %+v left %s at %v, want %v", rw, a, after[a], want)
			}
		}
	})
}
