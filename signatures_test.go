package tycoongrid_test

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"tycoongrid/internal/bank"
	"tycoongrid/internal/box"
	"tycoongrid/internal/httpapi"
	"tycoongrid/internal/metrics"
	"tycoongrid/internal/token"
	"tycoongrid/internal/xrsl"
)

// signatureOps reads pki_signature_ops_total, the process's Ed25519 signs
// and verifications so far.
func signatureOps(t *testing.T) (signs, verifies uint64) {
	t.Helper()
	found := 0
	for _, c := range metrics.Default().Snapshot().Counters {
		if c.Name != "pki_signature_ops_total" {
			continue
		}
		found++
		switch c.Labels["op"] {
		case "sign":
			signs = c.Value
		case "verify":
			verifies = c.Value
		}
	}
	if found != 2 {
		t.Fatalf("pki_signature_ops_total has %d children, want op=sign and op=verify", found)
	}
	return signs, verifies
}

// TestSignaturesPerOperation pins the unit cost of both hot paths as counts:
// the Ed25519 signs and verifications of each operation, read off
// pki_signature_ops_total around one call of its real entry point. Each row's
// set-up (minting the token a submission spends, signing the request a
// client sends) runs outside the count. A verification added to or dropped
// from a path fails here, where a timing would need many pairs to show it.
func TestSignaturesPerOperation(t *testing.T) {
	b, err := box.New(box.Config{Hosts: 4, CPUsPerHost: 2, CPUMHz: 2800, ReservePrice: 1.0 / 3600,
		ClusterName: "sig-box", Users: 1, GrantPerUser: 1000 * bank.Credit, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	u := b.Users[0]
	bankd := httpapi.ObservedMux("bankd", httpapi.NewBankService(b.Bank))
	mint := func(t *testing.T) token.Token {
		tok, err := b.MintToken(u, 10*bank.Credit)
		if err != nil {
			t.Fatal(err)
		}
		return tok
	}
	jr := &xrsl.JobRequest{JobName: "sig", Executable: "a.sh", Count: 2, WallTime: 2 * time.Hour}
	submit := func(t *testing.T, tok token.Token) {
		if _, err := b.Agent.Submit(tok, jr, []float64{600 * 2800, 600 * 2800}); err != nil {
			t.Fatal(err)
		}
	}
	// transfer is the wire form of a signed transfer from u to the broker;
	// a forged one carries another request's signature.
	nonce := 0
	transfer := func(amount bank.Amount, forged bool) []byte {
		nonce++
		req := bank.TransferRequest{From: u.Account, To: "broker", Amount: amount, Nonce: fmt.Sprintf("sig-%d", nonce)}
		signed := req
		if forged {
			signed.Amount++
		}
		body, err := json.Marshal(httpapi.TransferWire{From: string(req.From), To: string(req.To), Amount: amount.String(),
			Nonce: req.Nonce, Sig: base64.RawURLEncoding.EncodeToString(u.BankKey.Sign(signed.SigningBytes()))})
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	post := func(t *testing.T, body []byte, want int) {
		rec := httptest.NewRecorder()
		bankd.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/transfers", bytes.NewReader(body)))
		if rec.Code != want {
			t.Fatalf("POST /transfers: %d %s, want %d", rec.Code, rec.Body, want)
		}
	}

	var tok token.Token
	var job string
	var body []byte
	for _, op := range []struct {
		name            string
		signs, verifies uint64
		setUp           func(t *testing.T)
		run             func(t *testing.T)
	}{
		// The user's transfer request, the bank's check of it, its receipt
		// and the user's DN mapping.
		{"box.MintToken", 3, 1, nil, func(t *testing.T) { tok = mint(t) }},
		// The receipt, the certificate against the CA and the mapping; the
		// verifier remembers the certificate.
		{"Agent.Submit, certificate seen the first time", 0, 3, nil, func(t *testing.T) { submit(t, tok) }},
		{"Agent.Submit", 0, 2, func(t *testing.T) { tok = mint(t) }, func(t *testing.T) { submit(t, tok) }},
		{"Agent.Boost", 0, 2, func(t *testing.T) {
			tok = mint(t)
			j, err := b.Agent.Submit(mint(t), jr, []float64{600 * 2800})
			if err != nil {
				t.Fatal(err)
			}
			job = j.ID
		}, func(t *testing.T) {
			if err := b.Agent.Boost(job, tok); err != nil {
				t.Fatal(err)
			}
		}},
		// The request's signature, then the receipt's.
		{"bankd POST /transfers", 1, 1, func(*testing.T) { body = transfer(bank.Credit, false) },
			func(t *testing.T) { post(t, body, http.StatusOK) }},
		// A receipt is kept as its facts and signed again for every answer.
		{"bankd POST /transfers, a replay", 1, 1, nil, func(t *testing.T) { post(t, body, http.StatusOK) }},
		{"bankd POST /transfers, refused: bad signature", 0, 1, func(*testing.T) { body = transfer(bank.Credit, true) },
			func(t *testing.T) { post(t, body, http.StatusForbidden) }},
		{"bankd POST /transfers, refused: insufficient funds", 0, 1, func(*testing.T) { body = transfer(1e6*bank.Credit, false) },
			func(t *testing.T) { post(t, body, http.StatusPaymentRequired) }},
	} {
		if op.setUp != nil {
			op.setUp(t)
		}
		signs, verifies := signatureOps(t)
		op.run(t)
		s, v := signatureOps(t)
		if s-signs != op.signs || v-verifies != op.verifies {
			t.Errorf("%s: %d signs and %d verifications, want %d and %d", op.name, s-signs, v-verifies, op.signs, op.verifies)
		}
	}
}
