package httpapi

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"tycoongrid/internal/bank"
	"tycoongrid/internal/durable"
	"tycoongrid/internal/pki"
	"tycoongrid/internal/sim"
)

func durableBank(t *testing.T, dir string, id *pki.Identity) (*bank.Bank, *durable.Store) {
	t.Helper()
	st, err := durable.Open(dir, durable.Options{Sync: durable.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	b := bank.New(id, sim.WallClock{})
	if _, err := b.AttachDurability(st, 0); err != nil {
		t.Fatal(err)
	}
	return b, st
}

// TestTransferRetryAcrossBankRestart is the regression test for the
// double-apply bug: a client that re-sends the identical signed transfer
// after the bank restarted must get the original receipt back from the
// recovered ledger, not a second execution (and not a 409 that would strand
// the retry loop).
func TestTransferRetryAcrossBankRestart(t *testing.T) {
	ca, err := pki.NewDeterministicCA("/CN=CA", [32]byte{1})
	if err != nil {
		t.Fatal(err)
	}
	bankID, err := ca.IssueDeterministic("/CN=Bank", [32]byte{2})
	if err != nil {
		t.Fatal(err)
	}
	alice, err := ca.IssueDeterministic("/CN=Alice", [32]byte{3})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	b1, st1 := durableBank(t, dir, bankID)
	srv1 := httptest.NewServer(NewBankService(b1))
	client := NewBankClient(srv1.URL, nil)
	if _, err := client.CreateAccount("alice", alice.Public(), ""); err != nil {
		t.Fatal(err)
	}
	if _, err := client.CreateAccount("bob", alice.Public(), ""); err != nil {
		t.Fatal(err)
	}
	if err := client.Deposit("alice", 100*bank.Credit, "seed"); err != nil {
		t.Fatal(err)
	}
	req := bank.TransferRequest{From: "alice", To: "bob", Amount: 40 * bank.Credit, Nonce: "retry-1"}
	req.Sig = alice.Sign(req.SigningBytes())
	first, err := client.Transfer(req)
	if err != nil {
		t.Fatal(err)
	}
	srv1.Close()
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh process recovers the same data dir.
	b2, st2 := durableBank(t, dir, bankID)
	defer st2.Close()
	srv2 := httptest.NewServer(NewBankService(b2))
	defer srv2.Close()
	client2 := NewBankClient(srv2.URL, nil)

	// The client replays the exact same signed wire request (as its retry
	// loop would after the original response was lost to the crash).
	again, err := client2.Transfer(req)
	if err != nil {
		t.Fatalf("retry after restart: %v", err)
	}
	if !bytes.Equal(again.BankSig, first.BankSig) || !again.At.Equal(first.At) {
		t.Errorf("retry receipt differs: %+v vs %+v", again, first)
	}
	if bal, _ := client2.Balance("alice"); bal != 60*bank.Credit {
		t.Errorf("transfer applied twice: alice = %v", bal)
	}
	if bal, _ := client2.Balance("bob"); bal != 40*bank.Credit {
		t.Errorf("bob = %v", bal)
	}
}

// TestClosedLogAnswers503: once the bank's log is closed (or has failed) a
// write answers 503, and so does its identical retry. At 4xx the client's
// retry loop stops; and a retried transfer must not get a bank-signed receipt
// for a transfer the log never took. The refused transfer may still have
// moved the money in memory, so after it every read of that state answers 503
// too, and the service tells its daemon once, to stop.
func TestClosedLogAnswers503(t *testing.T) {
	ca, err := pki.NewDeterministicCA("/CN=CA", [32]byte{1})
	if err != nil {
		t.Fatal(err)
	}
	bankID, err := ca.IssueDeterministic("/CN=Bank", [32]byte{2})
	if err != nil {
		t.Fatal(err)
	}
	alice, err := ca.IssueDeterministic("/CN=Alice", [32]byte{3})
	if err != nil {
		t.Fatal(err)
	}
	b, st := durableBank(t, t.TempDir(), bankID)
	svc := NewBankService(b)
	var stops []error
	svc.OnLogFailure = func(err error) { stops = append(stops, err) }
	srv := httptest.NewServer(svc)
	defer srv.Close()
	client := NewBankClient(srv.URL, nil)
	for _, id := range []string{"alice", "bob"} {
		if _, err := client.CreateAccount(id, alice.Public(), ""); err != nil {
			t.Fatal(err)
		}
	}
	if err := client.Deposit("alice", 10*bank.Credit, "seed"); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	req := bank.TransferRequest{From: "alice", To: "bob", Amount: bank.Credit, Nonce: "after-close"}
	req.Sig = alice.Sign(req.SigningBytes())
	transfer, err := json.Marshal(TransferWire{
		From: "alice", To: "bob", Amount: req.Amount.String(), Nonce: req.Nonce,
		Sig: base64.RawURLEncoding.EncodeToString(req.Sig),
	})
	if err != nil {
		t.Fatal(err)
	}
	deposit, err := json.Marshal(DepositRequest{ID: "bob", Amount: "1", Memo: "after close"})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		path string
		body []byte
	}{{"/transfers", transfer}, {"/deposits", deposit}} {
		for attempt := 1; attempt <= 2; attempt++ {
			resp, err := http.Post(srv.URL+c.path, "application/json", bytes.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusServiceUnavailable {
				t.Errorf("POST %s attempt %d: %d %s, want 503", c.path, attempt, resp.StatusCode, body)
			}
		}
	}
	for _, path := range []string{"/accounts/alice", "/accounts/bob", "/history/bob", "/total"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("GET %s after the log closed: %d %s, want 503", path, resp.StatusCode, body)
		}
	}
	if len(stops) != 1 || !errors.Is(stops[0], durable.ErrClosed) {
		t.Errorf("OnLogFailure heard %v, want ErrClosed once", stops)
	}
}

func TestGateUntilReady(t *testing.T) {
	h := NewHealth("bankd", "wal")
	app := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	gated := h.GateUntilReady(app)

	rec := httptest.NewRecorder()
	gated.ServeHTTP(rec, httptest.NewRequest("GET", "/accounts/x", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("pre-recovery status = %d, want 503", rec.Code)
	}

	h.MarkReady("wal")
	rec = httptest.NewRecorder()
	gated.ServeHTTP(rec, httptest.NewRequest("GET", "/accounts/x", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("post-recovery status = %d, want 200", rec.Code)
	}

	// Draining must not re-engage the gate — in-flight clients finish.
	h.StartDrain()
	rec = httptest.NewRecorder()
	gated.ServeHTTP(rec, httptest.NewRequest("GET", "/accounts/x", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("draining status = %d, want 200", rec.Code)
	}
}
