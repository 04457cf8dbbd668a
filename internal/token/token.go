// Package token implements the paper's transfer tokens (§3.1): check-like
// capabilities that map a bank money transfer onto a Grid identity.
//
// The flow is exactly the paper's:
//
//  1. The user transfers money from their bank account to the resource
//     broker's account, receiving a bank-signed Receipt.
//  2. The user signs (receipt digest, Grid DN) with their Grid identity key,
//     producing a Token. Both the Grid private key and the bank account key
//     never leave the user's machine.
//  3. The broker verifies: the bank signature, that the transfer was indeed
//     into the broker's account, that the transfer id has not been used
//     before (double-spend), and that the DN mapping signature matches a
//     certificate issued by a trusted Grid CA.
//  4. On success the broker creates a sub-account funded with the verified
//     amount and runs the job on the Grid user's behalf.
//
// Because the DN mapping is decided independently of the transfer, a token's
// receipt can be handed to another person before step 2 — the paper's "gift
// certificates" for users with no Tycoon installation of their own.
package token

import (
	"crypto/ed25519"
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"
	"time"

	"tycoongrid/internal/bank"
	"tycoongrid/internal/pki"
)

// Token is a transfer receipt bound to a Grid identity.
type Token struct {
	Receipt  bank.Receipt
	GridDN   pki.DN
	UserCert pki.Certificate // Grid certificate whose key signed the mapping
	UserSig  []byte          // signature over MappingBytes
}

// MappingBytes returns the canonical bytes the user signs: a digest of the
// receipt plus the claimed DN. Signing a digest (not the raw receipt) keeps
// the signed statement fixed-size and independent of receipt encoding.
func MappingBytes(r bank.Receipt, dn pki.DN) []byte {
	h := sha256.New()
	h.Write([]byte("tycoongrid-token-mapping-v1"))
	h.Write(r.SigningBytes())
	h.Write([]byte{0})
	h.Write([]byte(dn))
	return h.Sum(nil)
}

// Attach binds a verified bank receipt to the Grid identity id, producing a
// token. This is step 2 of the flow; for gift certificates the receipt was
// produced by someone else's transfer.
func Attach(r bank.Receipt, id *pki.Identity) Token {
	return Token{
		Receipt:  r,
		GridDN:   id.DN(),
		UserCert: id.Cert,
		UserSig:  id.Sign(MappingBytes(r, id.DN())),
	}
}

// Verification errors.
var (
	ErrBadBankSignature = errors.New("token: bank signature invalid")
	ErrWrongPayee       = errors.New("token: transfer was not made to this broker")
	ErrSpent            = errors.New("token: transfer id already used")
	ErrBadMapping       = errors.New("token: DN mapping signature invalid")
	ErrDNMismatch       = errors.New("token: mapped DN does not match certificate subject")
	ErrBadCertificate   = errors.New("token: grid certificate invalid")
)

// Verifier checks tokens on behalf of one broker account. Safe for concurrent
// use.
type Verifier struct {
	bankKey []byte // ed25519 public key of the bank
	caCert  pki.Certificate
	broker  bank.AccountID

	// caVerify checks a user certificate's CA signature (pki.Verify). certs
	// holds, keyed by a certificate's signed bytes followed by its signature,
	// every certificate that passed the CA check: a user's certificate is the
	// same on every token they send, so its signature is verified once. Only
	// certificates the trusted CA signed get in, so the set grows with the
	// users the CA has issued, not with what callers send. spent holds the
	// transfer id of every token the verifier has accepted.
	caVerify func(pub ed25519.PublicKey, msg, sig []byte) bool
	mu       sync.Mutex
	certs    map[string]struct{}
	spent    map[string]struct{}
}

// NewVerifier returns a verifier that accepts tokens paying broker, signed
// by the bank's Ed25519 key bankKey, with user certificates issued by the
// self-signed CA certificate caCert. Its fourth parameter does nothing: the
// verifier keeps its own spent set. It keeps its place for the benchmark's
// caller (ROADMAP item 1(a) deletes it).
func NewVerifier(bankKey []byte, caCert pki.Certificate, broker bank.AccountID, _ *struct{}) (*Verifier, error) {
	if len(bankKey) != ed25519.PublicKeySize {
		return nil, fmt.Errorf("token: bank key is %d bytes, want %d", len(bankKey), ed25519.PublicKeySize)
	}
	if len(caCert.PublicKey) != ed25519.PublicKeySize {
		return nil, fmt.Errorf("token: CA key is %d bytes, want %d", len(caCert.PublicKey), ed25519.PublicKeySize)
	}
	if err := pki.VerifyCertAgainst(caCert, caCert, caCert.NotBefore); err != nil {
		return nil, fmt.Errorf("token: CA certificate %q is not self-signed: %w", caCert.Subject, err)
	}
	if broker == "" {
		return nil, errors.New("token: empty broker account")
	}
	return &Verifier{bankKey: bankKey, caCert: caCert, broker: broker,
		caVerify: pki.Verify, certs: make(map[string]struct{}), spent: make(map[string]struct{})}, nil
}

// Verify checks every property of the token at time now and, on success,
// consumes its transfer id. The returned amount is the verified funding.
func (v *Verifier) Verify(t Token, now time.Time) (bank.Amount, error) {
	if !bank.VerifyReceipt(v.bankKey, t.Receipt) {
		return 0, ErrBadBankSignature
	}
	if t.Receipt.To != v.broker {
		return 0, fmt.Errorf("%w: paid to %q, I am %q", ErrWrongPayee, t.Receipt.To, v.broker)
	}
	if err := v.checkCert(&t.UserCert, now); err != nil {
		return 0, fmt.Errorf("%w: %v", ErrBadCertificate, err)
	}
	if t.UserCert.Subject != t.GridDN {
		return 0, fmt.Errorf("%w: token %q, cert %q", ErrDNMismatch, t.GridDN, t.UserCert.Subject)
	}
	if !pki.Verify(t.UserCert.PublicKey, MappingBytes(t.Receipt, t.GridDN), t.UserSig) {
		return 0, ErrBadMapping
	}
	v.mu.Lock()
	_, used := v.spent[t.Receipt.TransferID]
	if !used {
		v.spent[t.Receipt.TransferID] = struct{}{}
	}
	v.mu.Unlock()
	if used {
		return 0, ErrSpent
	}
	return t.Receipt.Amount, nil
}

// checkCert is pki.VerifyCertAgainst(v.caCert, c, now) with the CA signature
// verified once per certificate: the issuer and the validity window are
// checked on every call, and a certificate is remembered only once it has
// passed all three checks. The key is the exact signed bytes plus the
// signature, so a signature copied onto any other subject, key or window
// misses and is verified, and fails.
func (v *Verifier) checkCert(c *pki.Certificate, now time.Time) error {
	if c.Issuer != v.caCert.Subject {
		return pki.ErrWrongIssuer
	}
	signed := c.SignedBytes()
	key := append(signed, c.Signature...)
	v.mu.Lock()
	_, known := v.certs[string(key)]
	v.mu.Unlock()
	if known {
		return c.ValidAt(now)
	}
	if !v.caVerify(v.caCert.PublicKey, signed, c.Signature) {
		return pki.ErrBadSignature
	}
	if err := c.ValidAt(now); err != nil {
		return err
	}
	v.mu.Lock()
	v.certs[string(key)] = struct{}{}
	v.mu.Unlock()
	return nil
}
