// Package pki models the Grid public-key infrastructure the paper's security
// design builds on: a certificate authority that binds a Distinguished Name
// (DN) to a public key, identities that can sign arbitrary statements, and
// verification helpers. The paper's integration keeps the Grid identity key
// and the bank account key both local to the user; this package issues and
// verifies both kinds.
//
// X.509/GSI is replaced by Ed25519 signatures over a canonical binary
// encoding — the evaluation depends on the verify-signature-over-DN
// semantics, not on the ASN.1 wire format (see DESIGN.md §2).
package pki

import (
	"bytes"
	"crypto/ed25519"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"time"

	"tycoongrid/internal/metrics"
)

// Every in-process Ed25519 operation goes through Identity.Sign or Verify,
// and each counts itself. The two children are resolved once, so an
// operation pays one atomic add and no label lookup.
var (
	mSignatureOps = metrics.Default().CounterVec("pki_signature_ops_total",
		"Ed25519 signature operations in this process, by op (sign, verify).", "op")
	mSigns    = mSignatureOps.With("sign")
	mVerifies = mSignatureOps.With("verify")
)

// DN is a Grid distinguished name such as "/O=Grid/OU=KTH/CN=Alice".
type DN string

// Validate checks the DN is non-empty, slash-rooted, and consists of
// KEY=VALUE components.
func (d DN) Validate() error {
	s := string(d)
	if s == "" {
		return errors.New("pki: empty DN")
	}
	if !strings.HasPrefix(s, "/") {
		return fmt.Errorf("pki: DN %q must start with '/'", s)
	}
	for _, part := range strings.Split(s[1:], "/") {
		if part == "" {
			return fmt.Errorf("pki: DN %q has an empty component", s)
		}
		k, _, ok := strings.Cut(part, "=")
		if !ok || k == "" {
			return fmt.Errorf("pki: DN component %q is not KEY=VALUE", part)
		}
	}
	return nil
}

// Certificate binds a DN to an Ed25519 public key, signed by a CA.
type Certificate struct {
	Subject   DN
	PublicKey ed25519.PublicKey
	Issuer    DN
	Serial    uint64
	NotBefore time.Time
	NotAfter  time.Time
	Signature []byte
}

// SignedBytes returns what the issuer signed: every field but the signature,
// in a deterministic encoding of length-prefixed fields, so that no two
// certificates share it and the signature appended to it is unambiguous.
func (c *Certificate) SignedBytes() []byte {
	var b bytes.Buffer
	writeField := func(p []byte) {
		var l [8]byte
		binary.BigEndian.PutUint64(l[:], uint64(len(p)))
		b.Write(l[:])
		b.Write(p)
	}
	writeField([]byte("tycoongrid-cert-v1"))
	writeField([]byte(c.Subject))
	writeField(c.PublicKey)
	writeField([]byte(c.Issuer))
	var ser [8]byte
	binary.BigEndian.PutUint64(ser[:], c.Serial)
	writeField(ser[:])
	writeField([]byte(c.NotBefore.UTC().Format(time.RFC3339Nano)))
	writeField([]byte(c.NotAfter.UTC().Format(time.RFC3339Nano)))
	return b.Bytes()
}

// Identity is a private key plus its certificate. A bare key (NewKey) has a
// zero Cert: it is known by its public key alone.
type Identity struct {
	Cert Certificate
	priv ed25519.PrivateKey
	pub  ed25519.PublicKey // computed at issue; Public hands out this one
}

// Sign signs msg with the identity's private key.
func (id *Identity) Sign(msg []byte) []byte {
	mSigns.Inc()
	return ed25519.Sign(id.priv, msg)
}

// Public returns the identity's public key: the one slice computed when the
// identity was issued, which every caller shares (a bank keeping it for each
// account keeps no copy). Callers must not modify it.
func (id *Identity) Public() ed25519.PublicKey {
	return id.pub
}

// DN returns the identity's distinguished name.
func (id *Identity) DN() DN { return id.Cert.Subject }

// Verify checks sig over msg against the identity's public key.
func Verify(pub ed25519.PublicKey, msg, sig []byte) bool {
	if len(pub) != ed25519.PublicKeySize {
		return false
	}
	mVerifies.Inc()
	return ed25519.Verify(pub, msg, sig)
}

// CA is a certificate authority. It is safe to copy only by pointer.
type CA struct {
	id     *Identity
	serial uint64
	ttl    time.Duration
	now    func() time.Time
}

// CAOption customizes a CA.
type CAOption func(*CA)

// WithTimeSource overrides the CA's clock, letting simulations issue
// certificates in virtual time.
func WithTimeSource(now func() time.Time) CAOption {
	return func(ca *CA) { ca.now = now }
}

// NewCA creates a CA with a fresh random key and a self-signed certificate.
func NewCA(name DN, opts ...CAOption) (*CA, error) {
	_, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("pki: generating CA key: %w", err)
	}
	return newCAFromKey(name, priv, opts...)
}

// NewDeterministicCA creates a CA keyed from a 32-byte seed; experiments use
// it so certificate bytes are reproducible across runs.
func NewDeterministicCA(name DN, seed [32]byte, opts ...CAOption) (*CA, error) {
	priv := ed25519.NewKeyFromSeed(seed[:])
	return newCAFromKey(name, priv, opts...)
}

func newCAFromKey(name DN, priv ed25519.PrivateKey, opts ...CAOption) (*CA, error) {
	if err := name.Validate(); err != nil {
		return nil, err
	}
	ca := &CA{ttl: 10 * 365 * 24 * time.Hour, now: time.Now}
	for _, o := range opts {
		o(ca)
	}
	now := ca.now()
	cert := Certificate{
		Subject:   name,
		PublicKey: priv.Public().(ed25519.PublicKey),
		Issuer:    name,
		Serial:    0,
		NotBefore: now,
		NotAfter:  now.Add(ca.ttl),
	}
	ca.id = &Identity{Cert: cert, priv: priv, pub: priv.Public().(ed25519.PublicKey)}
	ca.id.Cert.Signature = ca.id.Sign(cert.SignedBytes())
	return ca, nil
}

// Certificate returns the CA's self-signed certificate.
func (ca *CA) Certificate() Certificate { return ca.id.Cert }

// Issue creates a new identity for subject with a fresh random key.
func (ca *CA) Issue(subject DN) (*Identity, error) {
	_, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("pki: generating key for %s: %w", subject, err)
	}
	return ca.issueFromKey(subject, priv)
}

// IssueDeterministic creates an identity keyed from a seed.
func (ca *CA) IssueDeterministic(subject DN, seed [32]byte) (*Identity, error) {
	return ca.issueFromKey(subject, ed25519.NewKeyFromSeed(seed[:]))
}

func (ca *CA) issueFromKey(subject DN, priv ed25519.PrivateKey) (*Identity, error) {
	if err := subject.Validate(); err != nil {
		return nil, err
	}
	ca.serial++
	now := ca.now()
	cert := Certificate{
		Subject:   subject,
		PublicKey: priv.Public().(ed25519.PublicKey),
		Issuer:    ca.id.Cert.Subject,
		Serial:    ca.serial,
		NotBefore: now,
		NotAfter:  now.Add(ca.ttl),
	}
	cert.Signature = ca.id.Sign(cert.SignedBytes())
	return &Identity{Cert: cert, priv: priv, pub: priv.Public().(ed25519.PublicKey)}, nil
}

// NewKey returns a bare key keyed from seed: an identity with a zero Cert,
// for a key nothing checks a certificate of, such as a bank account key,
// which the bank knows by its public key.
func NewKey(seed [32]byte) *Identity {
	priv := ed25519.NewKeyFromSeed(seed[:])
	return &Identity{priv: priv, pub: priv.Public().(ed25519.PublicKey)}
}

// Verification errors.
var (
	ErrBadSignature = errors.New("pki: bad certificate signature")
	ErrExpired      = errors.New("pki: certificate expired or not yet valid")
	ErrWrongIssuer  = errors.New("pki: certificate issuer mismatch")
)

// VerifyCertAgainst checks cert against an out-of-band trusted CA
// certificate — what a resource broker holds instead of the CA itself.
func VerifyCertAgainst(caCert Certificate, cert Certificate, t time.Time) error {
	if cert.Issuer != caCert.Subject {
		return ErrWrongIssuer
	}
	if !Verify(caCert.PublicKey, cert.SignedBytes(), cert.Signature) {
		return ErrBadSignature
	}
	return cert.ValidAt(t)
}

// ValidAt returns ErrExpired unless t lies within c's validity window.
func (c *Certificate) ValidAt(t time.Time) error {
	if t.Before(c.NotBefore) || t.After(c.NotAfter) {
		return ErrExpired
	}
	return nil
}
