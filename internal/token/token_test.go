package token

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
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

// TestNewVerifierValidation: a verifier is built only on keys an Ed25519
// verify accepts and on a CA certificate that signed itself. A short bank key
// used to build a verifier that refused every token as a bad bank signature,
// and a CA key of the wrong size one that panicked at the first token whose
// issuer matched.
func TestNewVerifierValidation(t *testing.T) {
	w := newWorld(t)
	ca := w.ca.Certificate()
	withKey := func(key []byte) pki.Certificate {
		c := ca
		c.PublicKey = key
		return c
	}
	renamed := ca
	renamed.Subject = "/O=Grid/CN=OtherCA"
	renamed.Issuer = renamed.Subject
	for _, tc := range []struct {
		name    string
		bankKey []byte
		ca      pki.Certificate
		broker  bank.AccountID
	}{
		{"nil bank key", nil, ca, "broker"},
		{"5-byte bank key", w.bank.PublicKey()[:5], ca, "broker"},
		{"33-byte bank key", append(append([]byte(nil), w.bank.PublicKey()...), 0), ca, "broker"},
		{"31-byte CA key", w.bank.PublicKey(), withKey(ca.PublicKey[:31]), "broker"},
		{"no CA key", w.bank.PublicKey(), withKey(nil), "broker"},
		{"CA signature over another subject", w.bank.PublicKey(), renamed, "broker"},
		{"CA certificate signed by another key", w.bank.PublicKey(), withKey(w.user.Public()), "broker"},
		{"CA certificate issued by another CA", w.bank.PublicKey(), w.user.Cert, "broker"},
		{"zero CA certificate", w.bank.PublicKey(), pki.Certificate{}, "broker"},
		{"empty broker", w.bank.PublicKey(), ca, ""},
	} {
		if _, err := NewVerifier(tc.bankKey, tc.ca, tc.broker, nil); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if _, err := NewVerifier(w.bank.PublicKey(), ca, "broker", nil); err != nil {
		t.Errorf("the world's own keys: %v", err)
	}
}

// countCA counts the CA signature checks v makes.
func countCA(v *Verifier) *atomic.Int64 {
	var n atomic.Int64
	verify := v.caVerify
	v.caVerify = func(pub ed25519.PublicKey, msg, sig []byte) bool {
		n.Add(1)
		return verify(pub, msg, sig)
	}
	return &n
}

// TestOneCACheckPerCertificate: a thousand tokens from one user cost one CA
// signature check between them; the receipt and the mapping are still checked
// on every token.
func TestOneCACheckPerCertificate(t *testing.T) {
	w := newWorld(t)
	checks := countCA(w.verifier)
	for i := 0; i < 1000; i++ {
		tok := Attach(w.pay(t, bank.Credit/1000, fmt.Sprintf("c%d", i)), w.user)
		if _, err := w.verifier.Verify(tok, w.now()); err != nil {
			t.Fatalf("token %d: %v", i, err)
		}
	}
	if n := checks.Load(); n != 1 {
		t.Errorf("1000 tokens from one user made %d CA checks, want 1", n)
	}
	tok := Attach(w.pay(t, bank.Credit, "remapped"), w.user)
	tok.UserSig[0] ^= 1
	if _, err := w.verifier.Verify(tok, w.now()); !errors.Is(err, ErrBadMapping) {
		t.Errorf("mapping signature flipped after the certificate was remembered: %v", err)
	}
	tok = Attach(w.pay(t, bank.Credit, "inflated"), w.user)
	tok.Receipt.Amount *= 10
	tok.UserSig = w.user.Sign(MappingBytes(tok.Receipt, tok.GridDN))
	if _, err := w.verifier.Verify(tok, w.now()); !errors.Is(err, ErrBadBankSignature) {
		t.Errorf("receipt altered after the certificate was remembered: %v", err)
	}
}

// TestCopiedCASignatureIsRefused: once alice's certificate is remembered, her
// CA signature copied onto a certificate that differs in subject, key or
// validity window is verified afresh, and refused.
func TestCopiedCASignatureIsRefused(t *testing.T) {
	w := newWorld(t)
	if _, err := w.verifier.Verify(Attach(w.pay(t, bank.Credit, "first"), w.user), w.now()); err != nil {
		t.Fatal(err)
	}
	checks := countCA(w.verifier)
	mallory, _ := w.ca.IssueDeterministic("/O=Grid/CN=Mallory", [32]byte{9})
	for i, alter := range []struct {
		name string
		edit func(c *pki.Certificate)
	}{
		{"subject", func(c *pki.Certificate) { c.Subject = "/O=Grid/OU=KTH/CN=Alicia" }},
		{"key", func(c *pki.Certificate) { c.PublicKey = mallory.Public() }},
		{"NotAfter", func(c *pki.Certificate) { c.NotAfter = c.NotAfter.Add(365 * 24 * time.Hour) }},
	} {
		// Mallory holds the key that signs the mapping; the certificate is
		// alice's, altered, under alice's CA signature.
		cert := w.user.Cert
		alter.edit(&cert)
		r := w.pay(t, bank.Credit, fmt.Sprintf("copy%d", i))
		tok := Token{Receipt: r, GridDN: cert.Subject, UserCert: cert,
			UserSig: mallory.Sign(MappingBytes(r, cert.Subject))}
		if alter.name != "key" {
			tok.UserSig = w.user.Sign(MappingBytes(r, cert.Subject))
		}
		if _, err := w.verifier.Verify(tok, w.now()); !errors.Is(err, ErrBadCertificate) {
			t.Errorf("alice's CA signature on an altered %s: %v, want ErrBadCertificate", alter.name, err)
		}
		if n := checks.Load(); n != int64(i+1) {
			t.Errorf("altered %s: %d CA checks so far, want %d: it hit the memo", alter.name, n, i+1)
		}
	}
}

// TestRememberedCertificateStillExpires: the validity window is checked on
// every token, remembered certificate or not.
func TestRememberedCertificateStillExpires(t *testing.T) {
	w := newWorld(t)
	if _, err := w.verifier.Verify(Attach(w.pay(t, bank.Credit, "before"), w.user), w.now()); err != nil {
		t.Fatal(err)
	}
	checks := countCA(w.verifier)
	late := w.user.Cert.NotAfter.Add(time.Second)
	if _, err := w.verifier.Verify(Attach(w.pay(t, bank.Credit, "after"), w.user), late); !errors.Is(err, ErrBadCertificate) {
		t.Errorf("remembered certificate past NotAfter: %v, want ErrBadCertificate", err)
	}
	if n := checks.Load(); n != 0 {
		t.Errorf("%d CA checks, want 0: the certificate was remembered", n)
	}
}

// TestFailedCertificateIsNotRemembered: a certificate that fails any check —
// a signature from another CA under the trusted CA's name, or a good one
// outside its window — leaves nothing behind, and is checked again next time.
func TestFailedCertificateIsNotRemembered(t *testing.T) {
	w := newWorld(t)
	checks := countCA(w.verifier)
	evilCA, _ := pki.NewDeterministicCA(w.ca.Certificate().Subject, [32]byte{66})
	evil, _ := evilCA.IssueDeterministic("/O=Grid/OU=KTH/CN=Alice", [32]byte{67})
	early := w.user.Cert.NotBefore.Add(-time.Second)
	for i, tc := range []struct {
		name string
		id   *pki.Identity
		at   time.Time
	}{
		{"forged", evil, w.now()},
		{"forged again", evil, w.now()},
		{"not yet valid", w.user, early},
		{"not yet valid again", w.user, early},
	} {
		tok := Attach(w.pay(t, bank.Credit, fmt.Sprintf("f%d", i)), tc.id)
		if _, err := w.verifier.Verify(tok, tc.at); !errors.Is(err, ErrBadCertificate) {
			t.Errorf("%s: %v, want ErrBadCertificate", tc.name, err)
		}
		if n := checks.Load(); n != int64(i+1) {
			t.Errorf("%s: %d CA checks, want %d", tc.name, n, i+1)
		}
	}
	if n := len(w.verifier.certs); n != 0 {
		t.Errorf("%d certificates remembered after failed verifications", n)
	}
}

// TestConcurrentVerifyRemembersSafely: many goroutines verify tokens of two
// users at once, under -race; every token passes, and each certificate is
// remembered once.
func TestConcurrentVerifyRemembersSafely(t *testing.T) {
	w := newWorld(t)
	bob, _ := w.ca.IssueDeterministic("/O=Grid/CN=Bob", [32]byte{8})
	const n = 64
	toks := make([]Token, n)
	for i := range toks {
		id := w.user
		if i%2 == 1 {
			id = bob
		}
		toks[i] = Attach(w.pay(t, bank.Credit/100, fmt.Sprintf("cc%d", i)), id)
	}
	var wg sync.WaitGroup
	for _, tok := range toks {
		wg.Add(1)
		go func(tok Token) {
			defer wg.Done()
			if _, err := w.verifier.Verify(tok, w.now()); err != nil {
				t.Error(err)
			}
		}(tok)
	}
	wg.Wait()
	if got := len(w.verifier.certs); got != 2 {
		t.Errorf("%d certificates remembered, want 2", got)
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
