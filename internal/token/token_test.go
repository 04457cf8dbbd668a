package token

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"tycoongrid/internal/bank"
	"tycoongrid/internal/pki"
	"tycoongrid/internal/sim"
)

// world wires up a CA, bank, broker account and one funded grid user.
type world struct {
	ca       *pki.CA
	bank     *bank.Bank
	user     *pki.Identity // grid identity (DN mapping key)
	userBank *pki.Identity // bank account key, distinct from grid key
	verifier *Verifier
	clock    *sim.Engine
}

func newWorld(t *testing.T) *world {
	t.Helper()
	clock := sim.NewEngine()
	ca, err := pki.NewDeterministicCA("/O=Grid/CN=CA", [32]byte{1},
		pki.WithTimeSource(clock.Now))
	if err != nil {
		t.Fatal(err)
	}
	bankID, _ := ca.IssueDeterministic("/CN=Bank", [32]byte{2})
	user, _ := ca.IssueDeterministic("/O=Grid/OU=KTH/CN=Alice", [32]byte{3})
	userBank, _ := ca.IssueDeterministic("/CN=AliceBankKey", [32]byte{4})
	brokerID, _ := ca.IssueDeterministic("/CN=Broker", [32]byte{5})

	b := bank.New(bankID, clock)
	if _, err := b.CreateAccount("alice", userBank.Public()); err != nil {
		t.Fatal(err)
	}
	if _, err := b.CreateAccount("broker", brokerID.Public()); err != nil {
		t.Fatal(err)
	}
	if err := b.Deposit("alice", 500*bank.Credit, "grant"); err != nil {
		t.Fatal(err)
	}
	v, err := NewVerifier(b.PublicKey(), ca.Certificate(), "broker", nil)
	if err != nil {
		t.Fatal(err)
	}
	return &world{ca: ca, bank: b, user: user, userBank: userBank, verifier: v, clock: clock}
}

// pay transfers amount alice -> broker and returns the bank receipt.
func (w *world) pay(t *testing.T, amount bank.Amount, nonce string) bank.Receipt {
	t.Helper()
	req := bank.TransferRequest{From: "alice", To: "broker", Amount: amount, Nonce: nonce}
	req.Sig = w.userBank.Sign(req.SigningBytes())
	r, err := w.bank.Transfer(req)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func (w *world) now() time.Time { return w.clock.Now() }

func TestVerifyHappyPath(t *testing.T) {
	w := newWorld(t)
	r := w.pay(t, 100*bank.Credit, "t1")
	tok := Attach(r, w.user)
	amount, err := w.verifier.Verify(tok, w.now())
	if err != nil {
		t.Fatal(err)
	}
	if amount != 100*bank.Credit {
		t.Errorf("amount = %v", amount)
	}
	if tok.GridDN != "/O=Grid/OU=KTH/CN=Alice" {
		t.Errorf("DN = %q", tok.GridDN)
	}
}

func TestDoubleSpendRejected(t *testing.T) {
	w := newWorld(t)
	tok := Attach(w.pay(t, bank.Credit, "dup"), w.user)
	if _, err := w.verifier.Verify(tok, w.now()); err != nil {
		t.Fatal(err)
	}
	if _, err := w.verifier.Verify(tok, w.now()); !errors.Is(err, ErrSpent) {
		t.Errorf("double spend: %v", err)
	}
}

func TestWrongPayeeRejected(t *testing.T) {
	w := newWorld(t)
	// Money sent to alice's own account, not to the broker.
	other, _ := w.ca.IssueDeterministic("/CN=OtherBroker", [32]byte{6})
	if _, err := w.bank.CreateAccount("other", other.Public()); err != nil {
		t.Fatal(err)
	}
	req := bank.TransferRequest{From: "alice", To: "other", Amount: bank.Credit, Nonce: "wp"}
	req.Sig = w.userBank.Sign(req.SigningBytes())
	r, err := w.bank.Transfer(req)
	if err != nil {
		t.Fatal(err)
	}
	tok := Attach(r, w.user)
	if _, err := w.verifier.Verify(tok, w.now()); !errors.Is(err, ErrWrongPayee) {
		t.Errorf("wrong payee: %v", err)
	}
}

func TestForgedBankSignature(t *testing.T) {
	w := newWorld(t)
	r := w.pay(t, bank.Credit, "fb")
	r.Amount = 1000 * bank.Credit // inflate after signing
	tok := Attach(r, w.user)
	if _, err := w.verifier.Verify(tok, w.now()); !errors.Is(err, ErrBadBankSignature) {
		t.Errorf("forged receipt: %v", err)
	}
}

func TestMiddlemanCannotRemapDN(t *testing.T) {
	w := newWorld(t)
	r := w.pay(t, bank.Credit, "mm")
	tok := Attach(r, w.user)
	// A middleman swaps in their own DN but keeps Alice's signature.
	mallory, _ := w.ca.IssueDeterministic("/O=Grid/CN=Mallory", [32]byte{7})
	tok.GridDN = mallory.DN()
	tok.UserCert = mallory.Cert
	if _, err := w.verifier.Verify(tok, w.now()); !errors.Is(err, ErrBadMapping) {
		t.Errorf("remapped DN: %v", err)
	}
}

func TestDNMustMatchCertificate(t *testing.T) {
	w := newWorld(t)
	r := w.pay(t, bank.Credit, "dm")
	tok := Attach(r, w.user)
	tok.GridDN = "/O=Grid/CN=SomebodyElse"
	// Re-signing with alice's key cannot help: cert subject still differs.
	tok.UserSig = w.user.Sign(MappingBytes(tok.Receipt, tok.GridDN))
	if _, err := w.verifier.Verify(tok, w.now()); !errors.Is(err, ErrDNMismatch) {
		t.Errorf("mismatched DN: %v", err)
	}
}

func TestUntrustedCARejected(t *testing.T) {
	w := newWorld(t)
	r := w.pay(t, bank.Credit, "ca")
	evilCA, _ := pki.NewDeterministicCA("/O=Evil/CN=CA", [32]byte{66})
	evil, _ := evilCA.IssueDeterministic("/O=Grid/OU=KTH/CN=Alice", [32]byte{67})
	tok := Attach(r, evil)
	if _, err := w.verifier.Verify(tok, w.now()); !errors.Is(err, ErrBadCertificate) {
		t.Errorf("evil CA: %v", err)
	}
}

func TestExpiredCertificateRejected(t *testing.T) {
	w := newWorld(t)
	r := w.pay(t, bank.Credit, "exp")
	tok := Attach(r, w.user)
	farFuture := w.now().Add(100 * 365 * 24 * time.Hour)
	if _, err := w.verifier.Verify(tok, farFuture); !errors.Is(err, ErrBadCertificate) {
		t.Errorf("expired cert: %v", err)
	}
}

func TestGiftCertificateFlow(t *testing.T) {
	w := newWorld(t)
	// Alice pays, then hands the *receipt* to Bob, who has a Grid identity
	// but no bank account — the paper's gift certificate.
	r := w.pay(t, 25*bank.Credit, "gift")
	bob, _ := w.ca.IssueDeterministic("/O=Grid/CN=Bob", [32]byte{8})
	tok := Attach(r, bob)
	amount, err := w.verifier.Verify(tok, w.now())
	if err != nil {
		t.Fatalf("gift: %v", err)
	}
	if amount != 25*bank.Credit {
		t.Errorf("gift amount = %v", amount)
	}
	if tok.GridDN != "/O=Grid/CN=Bob" {
		t.Errorf("gift DN = %q", tok.GridDN)
	}
}

func TestConcurrentVerifySpendOnce(t *testing.T) {
	w := newWorld(t)
	tok := Attach(w.pay(t, bank.Credit, "race"), w.user)
	var wg sync.WaitGroup
	successes := make(chan struct{}, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := w.verifier.Verify(tok, w.now()); err == nil {
				successes <- struct{}{}
			}
		}()
	}
	wg.Wait()
	close(successes)
	n := 0
	for range successes {
		n++
	}
	if n != 1 {
		t.Errorf("token verified %d times, want exactly 1", n)
	}
}

func TestSpentStore(t *testing.T) {
	s := NewMemorySpentStore()
	if s.Spent("x") {
		t.Error("fresh id reported spent")
	}
	if !s.Spend("x") {
		t.Error("first spend failed")
	}
	if s.Spend("x") {
		t.Error("second spend succeeded")
	}
	if !s.Spent("x") {
		t.Error("spent id not recorded")
	}
}

func TestNewVerifierValidation(t *testing.T) {
	w := newWorld(t)
	if _, err := NewVerifier(nil, w.ca.Certificate(), "broker", nil); err == nil {
		t.Error("nil bank key accepted")
	}
	if _, err := NewVerifier(w.bank.PublicKey(), w.ca.Certificate(), "", nil); err == nil {
		t.Error("empty broker accepted")
	}
}

func TestManyTokensDistinctIDs(t *testing.T) {
	w := newWorld(t)
	for i := 0; i < 10; i++ {
		tok := Attach(w.pay(t, bank.Credit, fmt.Sprintf("m%d", i)), w.user)
		if _, err := w.verifier.Verify(tok, w.now()); err != nil {
			t.Fatalf("token %d: %v", i, err)
		}
	}
}
