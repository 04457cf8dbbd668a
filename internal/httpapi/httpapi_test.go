package httpapi

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tycoongrid/internal/bank"
	"tycoongrid/internal/pki"
	"tycoongrid/internal/sim"
	"tycoongrid/internal/sls"
	"tycoongrid/internal/token"
)

// services spins up bank and SLS on httptest servers.
type services struct {
	bank      *bank.Bank
	bankC     *BankClient
	slsC      *SLSClient
	ca        *pki.CA
	alice     *pki.Identity // bank key
	aliceGrid *pki.Identity
}

func startServices(t *testing.T) *services {
	t.Helper()
	ca, err := pki.NewDeterministicCA("/O=Grid/CN=CA", [32]byte{1})
	if err != nil {
		t.Fatal(err)
	}
	bankID, _ := ca.IssueDeterministic("/CN=Bank", [32]byte{2})
	alice, _ := ca.IssueDeterministic("/CN=AliceBank", [32]byte{3})
	aliceGrid, _ := ca.IssueDeterministic("/O=Grid/CN=Alice", [32]byte{4})

	b := bank.New(bankID, sim.WallClock{})
	bankSrv := httptest.NewServer(NewBankService(b))
	t.Cleanup(bankSrv.Close)

	reg := sls.New(sim.WallClock{}, sls.WithTTL(time.Hour))
	slsSrv := httptest.NewServer(NewSLSService(reg))
	t.Cleanup(slsSrv.Close)

	return &services{
		bank:      b,
		bankC:     NewBankClient(bankSrv.URL, nil),
		slsC:      NewSLSClient(slsSrv.URL, nil),
		ca:        ca,
		alice:     alice,
		aliceGrid: aliceGrid,
	}
}

func TestBankServiceAccountLifecycle(t *testing.T) {
	s := startServices(t)
	acct, err := s.bankC.CreateAccount("alice", s.alice.Public(), "")
	if err != nil {
		t.Fatal(err)
	}
	if acct.ID != "alice" || acct.Balance != "0" {
		t.Errorf("account = %+v", acct)
	}
	// Duplicate is a 409.
	if _, err := s.bankC.CreateAccount("alice", s.alice.Public(), ""); err == nil ||
		!strings.Contains(err.Error(), "409") {
		t.Errorf("duplicate: %v", err)
	}
	if err := s.bankC.Deposit("alice", 100*bank.Credit, "grant"); err != nil {
		t.Fatal(err)
	}
	bal, err := s.bankC.Balance("alice")
	if err != nil || bal != 100*bank.Credit {
		t.Errorf("balance = %v, %v", bal, err)
	}
	// Unknown account is a 404.
	if _, err := s.bankC.Account("ghost"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("ghost: %v", err)
	}
}

func TestBankServiceSignedTransferOverHTTP(t *testing.T) {
	s := startServices(t)
	broker, _ := s.ca.IssueDeterministic("/CN=Broker", [32]byte{9})
	if _, err := s.bankC.CreateAccount("alice", s.alice.Public(), ""); err != nil {
		t.Fatal(err)
	}
	if _, err := s.bankC.CreateAccount("broker", broker.Public(), ""); err != nil {
		t.Fatal(err)
	}
	if err := s.bankC.Deposit("alice", 50*bank.Credit, ""); err != nil {
		t.Fatal(err)
	}
	req := bank.TransferRequest{From: "alice", To: "broker", Amount: 20 * bank.Credit, Nonce: "http-1"}
	req.Sig = s.alice.Sign(req.SigningBytes())
	receipt, err := s.bankC.Transfer(req)
	if err != nil {
		t.Fatal(err)
	}
	// The receipt that crossed the wire still verifies and still feeds the
	// token layer.
	key, err := s.bankC.PublicKey()
	if err != nil {
		t.Fatal(err)
	}
	if !bank.VerifyReceipt(key, receipt) {
		t.Error("wire receipt does not verify")
	}
	tok := token.Attach(receipt, s.aliceGrid)
	v, err := token.NewVerifier(key, s.ca.Certificate(), "broker", nil)
	if err != nil {
		t.Fatal(err)
	}
	amount, err := v.Verify(tok, time.Now())
	if err != nil {
		t.Fatalf("token from wire receipt: %v", err)
	}
	if amount != 20*bank.Credit {
		t.Errorf("amount = %v", amount)
	}
	// Replaying the identical signed request is an idempotent retry: same
	// receipt back, no second debit.
	again, err := s.bankC.Transfer(req)
	if err != nil {
		t.Fatalf("idempotent replay: %v", err)
	}
	if !bytes.Equal(again.BankSig, receipt.BankSig) {
		t.Error("replay returned a different receipt")
	}
	if bal, _ := s.bankC.Balance("alice"); bal != 30*bank.Credit {
		t.Errorf("replay moved money twice: alice = %v", bal)
	}
	// Reusing the nonce with different terms is a 409.
	reuse := bank.TransferRequest{From: "alice", To: "broker", Amount: 5 * bank.Credit, Nonce: "http-1"}
	reuse.Sig = s.alice.Sign(reuse.SigningBytes())
	if _, err := s.bankC.Transfer(reuse); err == nil || !strings.Contains(err.Error(), "409") {
		t.Errorf("nonce reuse: %v", err)
	}
	// Forged signature is a 403.
	bad := bank.TransferRequest{From: "alice", To: "broker", Amount: bank.Credit, Nonce: "http-2"}
	bad.Sig = broker.Sign(bad.SigningBytes())
	if _, err := s.bankC.Transfer(bad); err == nil || !strings.Contains(err.Error(), "403") {
		t.Errorf("forged: %v", err)
	}
	// Overdraft is a 402.
	big := bank.TransferRequest{From: "alice", To: "broker", Amount: 1000 * bank.Credit, Nonce: "http-3"}
	big.Sig = s.alice.Sign(big.SigningBytes())
	if _, err := s.bankC.Transfer(big); err == nil || !strings.Contains(err.Error(), "402") {
		t.Errorf("overdraft: %v", err)
	}
	// An owner-signed transfer to the account itself is a 400 and moves (and
	// mints) nothing.
	self := bank.TransferRequest{From: "alice", To: "alice", Amount: 4 * bank.Credit, Nonce: "http-4"}
	self.Sig = s.alice.Sign(self.SigningBytes())
	if _, err := s.bankC.Transfer(self); err == nil || !strings.Contains(err.Error(), "400") {
		t.Errorf("self-transfer: %v", err)
	}
	if bal, _ := s.bankC.Balance("alice"); bal != 30*bank.Credit || s.bank.TotalMoney() != 50*bank.Credit {
		t.Errorf("self-transfer changed money: alice = %v, total = %v", bal, s.bank.TotalMoney())
	}
}

func TestBankServiceSubAccountsAndHistory(t *testing.T) {
	s := startServices(t)
	broker, _ := s.ca.IssueDeterministic("/CN=Broker", [32]byte{9})
	if _, err := s.bankC.CreateAccount("broker", broker.Public(), ""); err != nil {
		t.Fatal(err)
	}
	sub, err := s.bankC.CreateAccount("broker/job-1", broker.Public(), "broker")
	if err != nil {
		t.Fatal(err)
	}
	if sub.Parent != "broker" {
		t.Errorf("sub = %+v", sub)
	}
	if err := s.bankC.Deposit("broker", 5*bank.Credit, "seed"); err != nil {
		t.Fatal(err)
	}
	hist, err := s.bankC.History("broker")
	if err != nil || len(hist) != 1 || hist[0].Kind != "deposit" {
		t.Errorf("history = %+v, %v", hist, err)
	}
	if _, err := s.bankC.History("ghost"); err == nil {
		t.Error("ghost history accepted")
	}
}

func TestSLSServiceOverHTTP(t *testing.T) {
	s := startServices(t)
	h := sls.HostInfo{ID: "h1", Endpoint: "http://h1:7800", CapacityMHz: 5600, CPUs: 2, MaxVMs: 30, Site: "hplabs"}
	if err := s.slsC.Register(h); err != nil {
		t.Fatal(err)
	}
	if err := s.slsC.Register(sls.HostInfo{ID: "h2", Endpoint: "e", CapacityMHz: 2800, CPUs: 1, Site: "sics"}); err != nil {
		t.Fatal(err)
	}
	got, err := s.slsC.Lookup("h1")
	if err != nil || got.CapacityMHz != 5600 {
		t.Errorf("lookup = %+v, %v", got, err)
	}
	hosts, err := s.slsC.Select(sls.Query{MinCapacityMHz: 3000})
	if err != nil || len(hosts) != 1 || hosts[0].ID != "h1" {
		t.Errorf("select = %+v, %v", hosts, err)
	}
	hosts, err = s.slsC.Select(sls.Query{Site: "sics"})
	if err != nil || len(hosts) != 1 || hosts[0].ID != "h2" {
		t.Errorf("site select = %+v, %v", hosts, err)
	}
	if err := s.slsC.Heartbeat("h1", 0.25); err != nil {
		t.Fatal(err)
	}
	got, _ = s.slsC.Lookup("h1")
	if got.SpotPrice != 0.25 {
		t.Errorf("heartbeat price = %v", got.SpotPrice)
	}
	if err := s.slsC.Deregister("h1"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.slsC.Lookup("h1"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("after deregister: %v", err)
	}
	if err := s.slsC.Heartbeat("ghost", 0); err == nil {
		t.Error("ghost heartbeat accepted")
	}
	if err := s.slsC.Register(sls.HostInfo{ID: ""}); err == nil {
		t.Error("invalid host accepted")
	}
}

func TestReceiptWireRoundTrip(t *testing.T) {
	rw := ReceiptWire{
		TransferID: "t1", From: "a", To: "b", Amount: "12.5",
		At: time.Now().UTC(), BankSig: "c2ln",
	}
	r, err := rw.ToReceipt()
	if err != nil {
		t.Fatal(err)
	}
	if r.Amount != bank.MustCredits(12.5) || string(r.BankSig) != "sig" {
		t.Errorf("receipt = %+v", r)
	}
	if _, err := (ReceiptWire{Amount: "x"}).ToReceipt(); err == nil {
		t.Error("bad amount accepted")
	}
	if _, err := (ReceiptWire{Amount: "1", BankSig: "!!"}).ToReceipt(); err == nil {
		t.Error("bad sig accepted")
	}
}

func TestDecodeKeyErrors(t *testing.T) {
	if _, err := decodeKey("!!!"); err == nil {
		t.Error("bad base64 accepted")
	}
	if _, err := decodeKey("c2hvcnQ"); err == nil {
		t.Error("short key accepted")
	}
}

// TestClientsEscapeIDs: the typed clients put a caller's id into a URL path
// segment or query value escaped, so an id holding URL syntax reaches the
// service whole. Unescaped, "alice?x" is cut at the '?' and names alice, "#"
// starts a fragment, "%41" decodes to "A", "&site=b" adds a query parameter
// and "/" splits a path segment. Each case registers the id's decoy — what
// the unescaped URL would name — beside it, and checks that every call
// reached the id's own record and left the decoy's alone.
func TestClientsEscapeIDs(t *testing.T) {
	cases := []struct{ name, id, decoy string }{
		{"question", "alice?x", "alice"},
		{"hash", "frag#1", "frag"},
		{"percent", "pct%41", "pctA"},
		{"ampersand", "a&site=b", "a"},
		{"slash", "broker/p0-0001", "broker"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := startServices(t)
			id, decoy := tc.id, tc.decoy

			// Bank: Account and History.
			if _, err := s.bankC.CreateAccount(decoy, s.alice.Public(), ""); err != nil {
				t.Fatal(err)
			}
			parent := ""
			if strings.HasPrefix(id, decoy+"/") {
				parent = decoy // a job sub-account, as the broker names them
			}
			if _, err := s.bankC.CreateAccount(id, s.alice.Public(), parent); err != nil {
				t.Fatal(err)
			}
			if err := s.bankC.Deposit(decoy, 5*bank.Credit, ""); err != nil {
				t.Fatal(err)
			}
			if err := s.bankC.Deposit(id, 7*bank.Credit, ""); err != nil {
				t.Fatal(err)
			}
			if a, err := s.bankC.Account(id); err != nil || a.ID != id || a.Balance != "7" {
				t.Errorf("Account(%q) = %+v, %v; want its own balance 7", id, a, err)
			}
			if h, err := s.bankC.History(id); err != nil || len(h) != 1 || h[0].To != id || h[0].Amount != "7" {
				t.Errorf("History(%q) = %+v, %v; want its own deposit of 7", id, h, err)
			}

			// SLS: Select by site, Lookup and Deregister.
			for _, h := range []string{decoy, id} {
				if err := s.slsC.Register(sls.HostInfo{ID: h, Endpoint: "e", CapacityMHz: 2800, CPUs: 1, Site: h}); err != nil {
					t.Fatal(err)
				}
			}
			if hs, err := s.slsC.Select(sls.Query{Site: id}); err != nil || len(hs) != 1 || hs[0].ID != id {
				t.Errorf("Select(site %q) = %+v, %v; want the one host of that site", id, hs, err)
			}
			if h, err := s.slsC.Lookup(id); err != nil || h.ID != id {
				t.Errorf("Lookup(%q) = %+v, %v", id, h, err)
			}
			if err := s.slsC.Deregister(id); err != nil {
				t.Errorf("Deregister(%q): %v", id, err)
			}
			if _, err := s.slsC.Lookup(id); err == nil || !strings.Contains(err.Error(), "404") {
				t.Errorf("Lookup(%q) after its deregistration: %v, want 404", id, err)
			}
			if _, err := s.slsC.Lookup(decoy); err != nil {
				t.Errorf("deregistering %q removed %q: %v", id, decoy, err)
			}
		})
	}
}
