package pki

import (
	"bytes"
	"crypto/ed25519"
	"sync"
	"testing"
	"time"
)

func testCA(t *testing.T) *CA {
	t.Helper()
	ca, err := NewDeterministicCA("/O=Grid/CN=TestCA", [32]byte{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	return ca
}

func TestDNValidate(t *testing.T) {
	good := []DN{"/O=Grid/CN=Alice", "/CN=x", "/O=Grid/OU=KTH/CN=Jorge Andrade"}
	for _, d := range good {
		if err := d.Validate(); err != nil {
			t.Errorf("%q: unexpected error %v", d, err)
		}
	}
	bad := []DN{"", "CN=x", "/", "/CN", "/=x", "//CN=x", "/CN=a//O=b"}
	for _, d := range bad {
		if err := d.Validate(); err == nil {
			t.Errorf("%q: want error", d)
		}
	}
}

func TestDNCommonName(t *testing.T) {
	if cn := DN("/O=Grid/CN=Alice").CommonName(); cn != "Alice" {
		t.Errorf("CN = %q", cn)
	}
	if cn := DN("/O=Grid").CommonName(); cn != "" {
		t.Errorf("CN = %q, want empty", cn)
	}
}

func TestIssueAndVerify(t *testing.T) {
	ca := testCA(t)
	id, err := ca.Issue("/O=Grid/CN=Alice")
	if err != nil {
		t.Fatal(err)
	}
	if err := ca.VerifyCert(id.Cert, time.Now()); err != nil {
		t.Errorf("verify: %v", err)
	}
	if id.DN() != "/O=Grid/CN=Alice" {
		t.Errorf("DN = %q", id.DN())
	}
	if id.Cert.Issuer != ca.DN() {
		t.Errorf("issuer = %q", id.Cert.Issuer)
	}
}

func TestVerifyAgainstTrustedCertOnly(t *testing.T) {
	ca := testCA(t)
	id, _ := ca.Issue("/O=Grid/CN=Bob")
	// A broker that only holds the CA certificate can verify.
	if err := VerifyCertAgainst(ca.Certificate(), id.Cert, time.Now()); err != nil {
		t.Errorf("verify against cert: %v", err)
	}
}

func TestRejectsForgedCertificate(t *testing.T) {
	ca := testCA(t)
	id, _ := ca.Issue("/O=Grid/CN=Mallory")
	forged := id.Cert
	forged.Subject = "/O=Grid/CN=Admin" // tamper with the DN
	if err := ca.VerifyCert(forged, time.Now()); err != ErrBadSignature {
		t.Errorf("err = %v, want ErrBadSignature", err)
	}
	// Tampered public key must also fail.
	forged2 := id.Cert
	other, _ := ca.Issue("/O=Grid/CN=Other")
	forged2.PublicKey = other.Cert.PublicKey
	if err := ca.VerifyCert(forged2, time.Now()); err != ErrBadSignature {
		t.Errorf("err = %v, want ErrBadSignature", err)
	}
}

func TestRejectsWrongIssuer(t *testing.T) {
	ca := testCA(t)
	other, _ := NewDeterministicCA("/O=Evil/CN=OtherCA", [32]byte{9})
	id, _ := other.Issue("/O=Grid/CN=Alice")
	if err := ca.VerifyCert(id.Cert, time.Now()); err != ErrWrongIssuer {
		t.Errorf("err = %v, want ErrWrongIssuer", err)
	}
	// Same issuer name but different key must fail the signature check.
	impostor, _ := NewDeterministicCA("/O=Grid/CN=TestCA", [32]byte{7})
	id2, _ := impostor.Issue("/O=Grid/CN=Alice")
	if err := ca.VerifyCert(id2.Cert, time.Now()); err != ErrBadSignature {
		t.Errorf("err = %v, want ErrBadSignature", err)
	}
}

func TestExpiry(t *testing.T) {
	base := time.Date(2006, 6, 19, 0, 0, 0, 0, time.UTC)
	ca, err := NewDeterministicCA("/CN=CA", [32]byte{5},
		WithTTL(time.Hour), WithTimeSource(func() time.Time { return base }))
	if err != nil {
		t.Fatal(err)
	}
	id, _ := ca.Issue("/CN=U")
	if err := ca.VerifyCert(id.Cert, base.Add(30*time.Minute)); err != nil {
		t.Errorf("inside window: %v", err)
	}
	if err := ca.VerifyCert(id.Cert, base.Add(2*time.Hour)); err != ErrExpired {
		t.Errorf("after expiry: %v, want ErrExpired", err)
	}
	if err := ca.VerifyCert(id.Cert, base.Add(-time.Minute)); err != ErrExpired {
		t.Errorf("before validity: %v, want ErrExpired", err)
	}
}

func TestSignVerifyMessages(t *testing.T) {
	ca := testCA(t)
	id, _ := ca.Issue("/CN=Signer")
	msg := []byte("transfer 100 credits to broker")
	sig := id.Sign(msg)
	if !Verify(id.Public(), msg, sig) {
		t.Error("valid signature rejected")
	}
	if Verify(id.Public(), []byte("transfer 999 credits"), sig) {
		t.Error("signature accepted for altered message")
	}
	if Verify(id.Public()[:10], msg, sig) {
		t.Error("truncated key accepted")
	}
	other, _ := ca.Issue("/CN=Other")
	if Verify(other.Public(), msg, sig) {
		t.Error("signature accepted under wrong key")
	}
}

func TestSerialNumbersIncrease(t *testing.T) {
	ca := testCA(t)
	a, _ := ca.Issue("/CN=A")
	b, _ := ca.Issue("/CN=B")
	if b.Cert.Serial <= a.Cert.Serial {
		t.Errorf("serials %d, %d not increasing", a.Cert.Serial, b.Cert.Serial)
	}
}

func TestDeterministicIssueStableKeys(t *testing.T) {
	ca := testCA(t)
	a, _ := ca.IssueDeterministic("/CN=Seeded", [32]byte{42})
	b, _ := ca.IssueDeterministic("/CN=Seeded", [32]byte{42})
	if !a.Public().Equal(b.Public()) {
		t.Error("same seed must give same key")
	}
}

func TestIssueRejectsBadDN(t *testing.T) {
	ca := testCA(t)
	if _, err := ca.Issue("no-slash"); err == nil {
		t.Error("want DN validation error")
	}
	if _, err := NewCA("bad"); err == nil {
		t.Error("want DN validation error for CA name")
	}
}

func TestFingerprintStable(t *testing.T) {
	ca := testCA(t)
	id, _ := ca.IssueDeterministic("/CN=F", [32]byte{8})
	f1 := id.Cert.Fingerprint()
	f2 := id.Cert.Fingerprint()
	if f1 != f2 || len(f1) != 16 {
		t.Errorf("fingerprint %q/%q", f1, f2)
	}
}

func TestNewCARandomKeys(t *testing.T) {
	a, err := NewCA("/CN=A")
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewCA("/CN=B")
	if err != nil {
		t.Fatal(err)
	}
	if a.Certificate().Fingerprint() == b.Certificate().Fingerprint() {
		t.Error("two random CAs share a key")
	}
}

// publicSink keeps what Public returns reachable, so a copy made per call
// cannot live on the stack.
var publicSink ed25519.PublicKey

// TestPublicAllocatesNothing: Public hands out the key computed when the
// identity was issued — no copy a call, so a bank that keeps it for every
// account keeps nothing extra — and it is the certified key, for a CA's own
// identity and an issued one alike. Two goroutines asking at once (the
// plane's two bidding workers do) read the same key; run under -race.
func TestPublicAllocatesNothing(t *testing.T) {
	ca := testCA(t)
	id, err := ca.IssueDeterministic("/O=Grid/CN=Alice", [32]byte{9})
	if err != nil {
		t.Fatal(err)
	}
	for _, who := range []*Identity{ca.id, id} {
		if !who.Public().Equal(who.Cert.PublicKey) {
			t.Errorf("%s: Public() = %x, certificate key %x", who.DN(), who.Public(), who.Cert.PublicKey)
		}
		if allocs := testing.AllocsPerRun(100, func() { publicSink = who.Public() }); allocs != 0 {
			t.Errorf("%s: Public() makes %v allocations, want 0", who.DN(), allocs)
		}
	}
	var wg sync.WaitGroup
	keys := make([][]byte, 2)
	for w := range keys {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				keys[w] = id.Public()
			}
		}()
	}
	wg.Wait()
	for w, k := range keys {
		if !bytes.Equal(k, id.Cert.PublicKey) {
			t.Errorf("worker %d read %x, want %x", w, k, id.Cert.PublicKey)
		}
	}
}
