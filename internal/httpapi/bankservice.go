package httpapi

import (
	"context"
	"crypto/ed25519"
	"encoding/base64"
	"errors"
	"net/http"
	"net/url"
	"strings"
	"sync/atomic"
	"time"

	"tycoongrid/internal/bank"
	"tycoongrid/internal/durable"
)

// BankService exposes a bank.Bank over HTTP. It stops with the bank's log:
// after a mutation meets a failed or closed log, memory may hold a change the
// log never took, so every later request, reads included, answers 503.
type BankService struct {
	bank *bank.Bank
	mux  *http.ServeMux

	// OnLogFailure, if set, runs once with the error that stopped the service
	// (bankd exits there, so a supervisor restarts it from the log).
	OnLogFailure func(error)
	stopped      atomic.Pointer[error]
}

// NewBankService wraps b.
func NewBankService(b *bank.Bank) *BankService {
	s := &BankService{bank: b, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /accounts", s.createAccount)
	s.mux.HandleFunc("GET /accounts/{id...}", s.getAccount)
	s.mux.HandleFunc("POST /deposits", s.deposit)
	s.mux.HandleFunc("POST /transfers", s.transfer)
	s.mux.HandleFunc("GET /history/{id...}", s.history)
	s.mux.HandleFunc("GET /publickey", s.publicKey)
	s.mux.HandleFunc("GET /total", s.total)
	return s
}

// ServeHTTP implements http.Handler.
func (s *BankService) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if err := s.stopped.Load(); err != nil {
		WriteError(w, http.StatusServiceUnavailable, *err)
		return
	}
	s.mux.ServeHTTP(w, r)
}

// writeErr answers err with its status; a 503 — the log failed or closed —
// also stops the service.
func (s *BankService) writeErr(w http.ResponseWriter, err error) {
	status := statusFor(err)
	if status == http.StatusServiceUnavailable && s.stopped.CompareAndSwap(nil, &err) && s.OnLogFailure != nil {
		s.OnLogFailure(err)
	}
	WriteError(w, status, err)
}

// Wire types.
type (
	// CreateAccountRequest registers a new account bound to an owner key.
	CreateAccountRequest struct {
		ID       string `json:"id"`
		OwnerKey string `json:"owner_key"` // base64 raw-url Ed25519 public key
		Parent   string `json:"parent,omitempty"`
	}
	// AccountInfo is the public view of an account.
	AccountInfo struct {
		ID      string    `json:"id"`
		Parent  string    `json:"parent,omitempty"`
		Balance string    `json:"balance"` // decimal credits
		Created time.Time `json:"created"`
	}
	// DepositRequest grants funds (operator API).
	DepositRequest struct {
		ID     string `json:"id"`
		Amount string `json:"amount"`
		Memo   string `json:"memo,omitempty"`
	}
	// TransferWire is the signed transfer authorization.
	TransferWire struct {
		From   string `json:"from"`
		To     string `json:"to"`
		Amount string `json:"amount"`
		Nonce  string `json:"nonce"`
		Sig    string `json:"sig"` // base64 raw-url signature over SigningBytes
	}
	// ReceiptWire is the bank-signed transfer proof.
	ReceiptWire struct {
		TransferID string    `json:"transfer_id"`
		From       string    `json:"from"`
		To         string    `json:"to"`
		Amount     string    `json:"amount"`
		At         time.Time `json:"at"`
		BankSig    string    `json:"bank_sig"`
	}
	// EntryWire is one ledger row.
	EntryWire struct {
		Seq    uint64    `json:"seq"`
		Kind   string    `json:"kind"`
		From   string    `json:"from,omitempty"`
		To     string    `json:"to"`
		Amount string    `json:"amount"`
		Memo   string    `json:"memo,omitempty"`
		At     time.Time `json:"at"`
	}
	// PublicKeyResponse carries the bank's receipt-verification key.
	PublicKeyResponse struct {
		Key string `json:"key"`
	}
	// TotalsResponse is the conservation check: the money in all balances,
	// which only deposits change. Total and Conserved are the same number.
	TotalsResponse struct {
		Total     string `json:"total"`
		Conserved string `json:"conserved"`
	}
)

func decodeKey(s string) (ed25519.PublicKey, error) {
	raw, err := base64.RawURLEncoding.DecodeString(s)
	if err != nil {
		return nil, err
	}
	if len(raw) != ed25519.PublicKeySize {
		return nil, errors.New("httpapi: bad key length")
	}
	return ed25519.PublicKey(raw), nil
}

// EncodeKey renders a public key for wire use.
func EncodeKey(k ed25519.PublicKey) string {
	return base64.RawURLEncoding.EncodeToString(k)
}

// statusFor maps a bank error to its HTTP status. A failed or closed log is
// 503: the operation may have changed memory but not the log, the retry is
// refused the same way, and a client's retry loop keeps trying instead of
// taking a 4xx as final.
func statusFor(err error) int {
	switch {
	case errors.Is(err, durable.ErrFailed), errors.Is(err, durable.ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, bank.ErrNoAccount):
		return http.StatusNotFound
	case errors.Is(err, bank.ErrDuplicateAccount), errors.Is(err, bank.ErrNonceReused):
		return http.StatusConflict
	case errors.Is(err, bank.ErrBadAuthorization):
		return http.StatusForbidden
	case errors.Is(err, bank.ErrInsufficientFunds):
		return http.StatusPaymentRequired
	default:
		return http.StatusBadRequest
	}
}

func (s *BankService) createAccount(w http.ResponseWriter, r *http.Request) {
	var req CreateAccountRequest
	if err := ReadJSON(r, &req); err != nil {
		WriteError(w, ReadStatus(err), err)
		return
	}
	key, err := decodeKey(req.OwnerKey)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	var acct *bank.Account
	if req.Parent != "" {
		child := strings.TrimPrefix(req.ID, req.Parent+"/")
		acct, err = s.bank.CreateSubAccount(bank.AccountID(req.Parent), child, key)
	} else {
		acct, err = s.bank.CreateAccount(bank.AccountID(req.ID), key)
	}
	if err != nil {
		s.writeErr(w, err)
		return
	}
	WriteJSON(w, accountInfo(*acct))
}

func accountInfo(a bank.Account) AccountInfo {
	return AccountInfo{
		ID:      string(a.ID),
		Parent:  string(a.Parent),
		Balance: a.Balance.String(),
		Created: a.Created,
	}
}

func (s *BankService) getAccount(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	a, err := s.bank.Lookup(bank.AccountID(id))
	if err != nil {
		s.writeErr(w, err)
		return
	}
	WriteJSON(w, accountInfo(a))
}

func (s *BankService) deposit(w http.ResponseWriter, r *http.Request) {
	var req DepositRequest
	if err := ReadJSON(r, &req); err != nil {
		WriteError(w, ReadStatus(err), err)
		return
	}
	amount, err := bank.ParseAmount(req.Amount)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	if err := s.bank.Deposit(bank.AccountID(req.ID), amount, req.Memo); err != nil {
		s.writeErr(w, err)
		return
	}
	bal, err := s.bank.Balance(bank.AccountID(req.ID))
	if err != nil {
		s.writeErr(w, err)
		return
	}
	WriteJSON(w, AccountInfo{ID: req.ID, Balance: bal.String()})
}

func (s *BankService) transfer(w http.ResponseWriter, r *http.Request) {
	var req TransferWire
	if err := ReadJSON(r, &req); err != nil {
		WriteError(w, ReadStatus(err), err)
		return
	}
	amount, err := bank.ParseAmount(req.Amount)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	sig, err := base64.RawURLEncoding.DecodeString(req.Sig)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	receipt, err := s.bank.Transfer(bank.TransferRequest{
		From:   bank.AccountID(req.From),
		To:     bank.AccountID(req.To),
		Amount: amount,
		Nonce:  req.Nonce,
		Sig:    sig,
	})
	if err != nil {
		s.writeErr(w, err)
		return
	}
	WriteJSON(w, receiptWire(receipt))
}

func receiptWire(rc bank.Receipt) ReceiptWire {
	return ReceiptWire{
		TransferID: rc.TransferID,
		From:       string(rc.From),
		To:         string(rc.To),
		Amount:     rc.Amount.String(),
		At:         rc.At,
		BankSig:    base64.RawURLEncoding.EncodeToString(rc.BankSig),
	}
}

// ToReceipt converts the wire form back into a verifiable receipt.
func (rw ReceiptWire) ToReceipt() (bank.Receipt, error) {
	amount, err := bank.ParseAmount(rw.Amount)
	if err != nil {
		return bank.Receipt{}, err
	}
	sig, err := base64.RawURLEncoding.DecodeString(rw.BankSig)
	if err != nil {
		return bank.Receipt{}, err
	}
	return bank.Receipt{
		TransferID: rw.TransferID,
		From:       bank.AccountID(rw.From),
		To:         bank.AccountID(rw.To),
		Amount:     amount,
		At:         rw.At,
		BankSig:    sig,
	}, nil
}

func (s *BankService) history(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, err := s.bank.Lookup(bank.AccountID(id)); err != nil {
		s.writeErr(w, err)
		return
	}
	entries := s.bank.History(bank.AccountID(id))
	out := make([]EntryWire, len(entries))
	for i, e := range entries {
		out[i] = EntryWire{
			Seq: e.Seq, Kind: string(e.Kind), From: string(e.From), To: string(e.To),
			Amount: e.Amount.String(), Memo: e.Memo, At: e.At,
		}
	}
	WriteJSON(w, out)
}

func (s *BankService) publicKey(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, PublicKeyResponse{Key: EncodeKey(s.bank.PublicKey())})
}

func (s *BankService) total(w http.ResponseWriter, r *http.Request) {
	total := s.bank.TotalMoney().String()
	WriteJSON(w, TotalsResponse{Total: total, Conserved: total})
}

// BankClient is the typed client for a BankService.
type BankClient struct {
	base string
	call Caller
}

// NewBankClient targets base (e.g. "http://localhost:7700"). A nil client
// defaults to one with DefaultClientTimeout. Reads and the nonce-protected
// Transfer are retried with backoff; CreateAccount and Deposit are single
// attempts. All calls share one circuit breaker named "bank".
func NewBankClient(base string, client *http.Client) *BankClient {
	return &BankClient{base: strings.TrimSuffix(base, "/"), call: newCaller("bank", client)}
}

// CreateAccount registers an account.
func (c *BankClient) CreateAccount(id string, owner ed25519.PublicKey, parent string) (AccountInfo, error) {
	var out AccountInfo
	err := c.call.post(context.Background(), c.base+"/accounts",
		CreateAccountRequest{ID: id, OwnerKey: EncodeKey(owner), Parent: parent}, &out)
	return out, err
}

// Account fetches an account's public view.
func (c *BankClient) Account(id string) (AccountInfo, error) {
	var out AccountInfo
	err := c.call.get(context.Background(), c.base+"/accounts/"+url.PathEscape(id), &out)
	return out, err
}

// Balance returns the account balance.
func (c *BankClient) Balance(id string) (bank.Amount, error) {
	a, err := c.Account(id)
	if err != nil {
		return 0, err
	}
	return bank.ParseAmount(a.Balance)
}

// Deposit grants funds (operator API).
func (c *BankClient) Deposit(id string, amount bank.Amount, memo string) error {
	return c.call.post(context.Background(), c.base+"/deposits",
		DepositRequest{ID: id, Amount: amount.String(), Memo: memo}, nil)
}

// Transfer executes a signed transfer; sign must produce a signature over
// the request's canonical bytes (use bank.TransferRequest.SigningBytes via
// SignTransfer).
func (c *BankClient) Transfer(req bank.TransferRequest) (bank.Receipt, error) {
	wirereq := TransferWire{
		From:   string(req.From),
		To:     string(req.To),
		Amount: req.Amount.String(),
		Nonce:  req.Nonce,
		Sig:    base64.RawURLEncoding.EncodeToString(req.Sig),
	}
	var out ReceiptWire
	// Retried: the bank's nonce spent-store rejects replays, so a transfer
	// whose response was lost can be re-sent without double-spending.
	if err := c.call.postIdempotent(context.Background(), c.base+"/transfers", wirereq, &out); err != nil {
		return bank.Receipt{}, err
	}
	return out.ToReceipt()
}

// Totals fetches the bank's conservation numbers.
func (c *BankClient) Totals() (TotalsResponse, error) {
	var out TotalsResponse
	err := c.call.get(context.Background(), c.base+"/total", &out)
	return out, err
}

// History lists ledger entries touching id.
func (c *BankClient) History(id string) ([]EntryWire, error) {
	var out []EntryWire
	err := c.call.get(context.Background(), c.base+"/history/"+url.PathEscape(id), &out)
	return out, err
}

// PublicKey fetches the bank's receipt-verification key.
func (c *BankClient) PublicKey() (ed25519.PublicKey, error) {
	var out PublicKeyResponse
	if err := c.call.get(context.Background(), c.base+"/publickey", &out); err != nil {
		return nil, err
	}
	return decodeKey(out.Key)
}
