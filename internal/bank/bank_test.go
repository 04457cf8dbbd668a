package bank

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"tycoongrid/internal/pki"
	"tycoongrid/internal/sim"
)

// fixture bundles a bank with a few funded identities.
type fixture struct {
	bank  *Bank
	ca    *pki.CA
	alice *pki.Identity
	bob   *pki.Identity
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	ca, err := pki.NewDeterministicCA("/CN=CA", [32]byte{1})
	if err != nil {
		t.Fatal(err)
	}
	bankID, err := ca.IssueDeterministic("/CN=Bank", [32]byte{2})
	if err != nil {
		t.Fatal(err)
	}
	alice, err := ca.IssueDeterministic("/O=Grid/CN=Alice", [32]byte{3})
	if err != nil {
		t.Fatal(err)
	}
	bob, err := ca.IssueDeterministic("/O=Grid/CN=Bob", [32]byte{4})
	if err != nil {
		t.Fatal(err)
	}
	b := New(bankID, sim.NewEngine())
	for name, id := range map[AccountID]*pki.Identity{"alice": alice, "bob": bob} {
		if _, err := b.CreateAccount(name, id.Public()); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Deposit("alice", 100*Credit, "grant"); err != nil {
		t.Fatal(err)
	}
	return &fixture{bank: b, ca: ca, alice: alice, bob: bob}
}

// signedTransfer builds an owner-signed request.
func signedTransfer(id *pki.Identity, from, to AccountID, amount Amount, nonce string) TransferRequest {
	req := TransferRequest{From: from, To: to, Amount: amount, Nonce: nonce}
	req.Sig = id.Sign(req.SigningBytes())
	return req
}

func TestCreateAccountValidation(t *testing.T) {
	f := newFixture(t)
	if _, err := f.bank.CreateAccount("alice", f.alice.Public()); !errors.Is(err, ErrDuplicateAccount) {
		t.Errorf("duplicate: %v", err)
	}
	if _, err := f.bank.CreateAccount("", f.alice.Public()); err == nil {
		t.Error("empty id accepted")
	}
	if _, err := f.bank.CreateAccount("x", []byte{1, 2}); err == nil {
		t.Error("short key accepted")
	}
}

func TestDeposit(t *testing.T) {
	f := newFixture(t)
	bal, err := f.bank.Balance("alice")
	if err != nil || bal != 100*Credit {
		t.Fatalf("balance = %v, %v", bal, err)
	}
	if err := f.bank.Deposit("alice", 0, ""); !errors.Is(err, ErrNonPositive) {
		t.Errorf("zero deposit: %v", err)
	}
	if err := f.bank.Deposit("ghost", Credit, ""); !errors.Is(err, ErrNoAccount) {
		t.Errorf("ghost deposit: %v", err)
	}
}

func TestTransferHappyPath(t *testing.T) {
	f := newFixture(t)
	req := signedTransfer(f.alice, "alice", "bob", 30*Credit, "n1")
	r, err := f.bank.Transfer(req)
	if err != nil {
		t.Fatal(err)
	}
	if r.TransferID != "n1" || r.From != "alice" || r.To != "bob" || r.Amount != 30*Credit {
		t.Errorf("receipt = %+v", r)
	}
	if !VerifyReceipt(f.bank.PublicKey(), r) {
		t.Error("bank receipt signature invalid")
	}
	aBal, _ := f.bank.Balance("alice")
	bBal, _ := f.bank.Balance("bob")
	if aBal != 70*Credit || bBal != 30*Credit {
		t.Errorf("balances %v / %v", aBal, bBal)
	}
}

func TestTransferRejectsForgedSignature(t *testing.T) {
	f := newFixture(t)
	// Bob signs a transfer out of Alice's account.
	req := TransferRequest{From: "alice", To: "bob", Amount: Credit, Nonce: "n2"}
	req.Sig = f.bob.Sign(req.SigningBytes())
	if _, err := f.bank.Transfer(req); !errors.Is(err, ErrBadAuthorization) {
		t.Errorf("forged: %v", err)
	}
	// Tampered amount after signing.
	req = signedTransfer(f.alice, "alice", "bob", Credit, "n3")
	req.Amount = 50 * Credit
	if _, err := f.bank.Transfer(req); !errors.Is(err, ErrBadAuthorization) {
		t.Errorf("tampered: %v", err)
	}
}

func TestTransferNonceReplay(t *testing.T) {
	f := newFixture(t)
	req := signedTransfer(f.alice, "alice", "bob", Credit, "dup")
	first, err := f.bank.Transfer(req)
	if err != nil {
		t.Fatal(err)
	}
	// Replaying the identical request is an idempotent retry: the stored
	// receipt comes back and no money moves a second time.
	again, err := f.bank.Transfer(req)
	if err != nil {
		t.Fatalf("idempotent replay: %v", err)
	}
	if !bytes.Equal(again.BankSig, first.BankSig) || again.At != first.At {
		t.Errorf("replay returned a different receipt: %+v vs %+v", again, first)
	}
	if bal, _ := f.bank.Balance("bob"); bal != Credit {
		t.Errorf("replay moved money twice: bob has %v", bal)
	}
	// Reusing the nonce with different terms is a replay attack and fails.
	other := signedTransfer(f.alice, "alice", "bob", 2*Credit, "dup")
	if _, err := f.bank.Transfer(other); !errors.Is(err, ErrNonceReused) {
		t.Errorf("nonce reuse with new terms: %v", err)
	}
}

// TestTransferToSelfRefused: a signed transfer from an account to itself used
// to store the credit over the debit and mint the amount. It is refused before
// anything is written: balance, money supply, drift, ledger and nonce are as
// they were, and the same nonce still pays somebody else.
func TestTransferToSelfRefused(t *testing.T) {
	f := newFixture(t)
	history := len(f.bank.History("alice"))
	_, err := f.bank.Transfer(signedTransfer(f.alice, "alice", "alice", 4*Credit, "n-self"))
	if !errors.Is(err, ErrSameAccount) {
		t.Fatalf("self-transfer: %v, want ErrSameAccount", err)
	}
	if got, _ := f.bank.Balance("alice"); got != 100*Credit {
		t.Errorf("alice = %v after a refused self-transfer, want 100", got)
	}
	if total, drift := f.bank.TotalMoney(), f.bank.Drift(); total != 100*Credit || drift != 0 {
		t.Errorf("TotalMoney = %v, Drift = %v; want 100, 0", total, drift)
	}
	if got := len(f.bank.History("alice")); got != history {
		t.Errorf("history grew from %d to %d entries", history, got)
	}
	if _, err := f.bank.Transfer(signedTransfer(f.alice, "alice", "bob", 4*Credit, "n-self")); err != nil {
		t.Errorf("the refused transfer spent its nonce: %v", err)
	}
	if got, _ := f.bank.Balance("alice"); got != 96*Credit {
		t.Errorf("alice = %v, want 96", got)
	}
}

func TestTransferInsufficientFunds(t *testing.T) {
	f := newFixture(t)
	req := signedTransfer(f.alice, "alice", "bob", 1000*Credit, "big")
	if _, err := f.bank.Transfer(req); !errors.Is(err, ErrInsufficientFunds) {
		t.Errorf("overdraft: %v", err)
	}
	// Failed transfer must not consume the nonce.
	req2 := signedTransfer(f.alice, "alice", "bob", Credit, "big")
	if _, err := f.bank.Transfer(req2); err != nil {
		t.Errorf("nonce burned by failed transfer: %v", err)
	}
}

func TestTransferValidation(t *testing.T) {
	f := newFixture(t)
	if _, err := f.bank.Transfer(signedTransfer(f.alice, "alice", "bob", 0, "z")); !errors.Is(err, ErrNonPositive) {
		t.Errorf("zero: %v", err)
	}
	if _, err := f.bank.Transfer(signedTransfer(f.alice, "alice", "ghost", Credit, "g")); !errors.Is(err, ErrNoAccount) {
		t.Errorf("ghost dest: %v", err)
	}
	if _, err := f.bank.Transfer(signedTransfer(f.alice, "ghost", "bob", Credit, "g2")); !errors.Is(err, ErrNoAccount) {
		t.Errorf("ghost src: %v", err)
	}
	req := signedTransfer(f.alice, "alice", "bob", Credit, "")
	if _, err := f.bank.Transfer(req); err == nil {
		t.Error("empty nonce accepted")
	}
}

func TestVerifyReceiptRejectsTampering(t *testing.T) {
	f := newFixture(t)
	r, err := f.bank.Transfer(signedTransfer(f.alice, "alice", "bob", Credit, "vr"))
	if err != nil {
		t.Fatal(err)
	}
	bad := r
	bad.Amount = 500 * Credit
	if VerifyReceipt(f.bank.PublicKey(), bad) {
		t.Error("tampered receipt verified")
	}
	bad = r
	bad.To = "mallory"
	if VerifyReceipt(f.bank.PublicKey(), bad) {
		t.Error("redirected receipt verified")
	}
}

func TestSubAccounts(t *testing.T) {
	f := newFixture(t)
	broker, _ := f.ca.IssueDeterministic("/CN=Broker", [32]byte{9})
	if _, err := f.bank.CreateAccount("broker", broker.Public()); err != nil {
		t.Fatal(err)
	}
	sub, err := f.bank.CreateSubAccount("broker", "job-1", broker.Public())
	if err != nil {
		t.Fatal(err)
	}
	if sub.ID != "broker/job-1" || sub.Parent != "broker" {
		t.Errorf("sub = %+v", sub)
	}
	if _, err := f.bank.CreateSubAccount("ghost", "x", broker.Public()); !errors.Is(err, ErrNoAccount) {
		t.Errorf("ghost parent: %v", err)
	}
}

func TestMoveInternal(t *testing.T) {
	f := newFixture(t)
	broker, _ := f.ca.IssueDeterministic("/CN=Broker", [32]byte{9})
	if _, err := f.bank.CreateAccount("broker", broker.Public()); err != nil {
		t.Fatal(err)
	}
	if _, err := f.bank.CreateSubAccount("broker", "job-1", broker.Public()); err != nil {
		t.Fatal(err)
	}
	if err := f.bank.Deposit("broker", 50*Credit, ""); err != nil {
		t.Fatal(err)
	}
	if err := f.bank.MoveInternal(broker, "broker", "broker/job-1", 20*Credit, EntryTransfer, "fund job"); err != nil {
		t.Fatal(err)
	}
	bal, _ := f.bank.Balance("broker/job-1")
	if bal != 20*Credit {
		t.Errorf("sub balance = %v", bal)
	}
	// Alice's key cannot move broker funds.
	if err := f.bank.MoveInternal(f.alice, "broker", "broker/job-1", Credit, EntryTransfer, ""); !errors.Is(err, ErrBadAuthorization) {
		t.Errorf("wrong owner: %v", err)
	}
	if err := f.bank.MoveInternal(broker, "broker", "broker/job-1", 1000*Credit, EntryTransfer, ""); !errors.Is(err, ErrInsufficientFunds) {
		t.Errorf("overdraft: %v", err)
	}
}

func TestHistoryAndLedger(t *testing.T) {
	f := newFixture(t)
	if _, err := f.bank.Transfer(signedTransfer(f.alice, "alice", "bob", Credit, "h1")); err != nil {
		t.Fatal(err)
	}
	h := f.bank.History("alice")
	if len(h) != 2 { // deposit + transfer
		t.Fatalf("history = %d entries", len(h))
	}
	if h[0].Kind != EntryDeposit || h[1].Kind != EntryTransfer {
		t.Errorf("kinds = %v, %v", h[0].Kind, h[1].Kind)
	}
	if h[0].Seq >= h[1].Seq {
		t.Error("ledger sequence not increasing")
	}
	if len(f.bank.History("ghost")) != 0 {
		t.Error("ghost history should be empty")
	}
}

func TestMoneyConservation(t *testing.T) {
	f := newFixture(t)
	before := f.bank.TotalMoney()
	for i := 0; i < 20; i++ {
		nonce := fmt.Sprintf("c%d", i)
		if _, err := f.bank.Transfer(signedTransfer(f.alice, "alice", "bob", Credit, nonce)); err != nil {
			t.Fatal(err)
		}
	}
	if f.bank.TotalMoney() != before {
		t.Errorf("transfers changed total money: %v -> %v", before, f.bank.TotalMoney())
	}
}

func TestConcurrentTransfersConserveMoney(t *testing.T) {
	f := newFixture(t)
	// Give bob funds so transfers flow both ways.
	if err := f.bank.Deposit("bob", 100*Credit, ""); err != nil {
		t.Fatal(err)
	}
	before := f.bank.TotalMoney()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				var req TransferRequest
				if g%2 == 0 {
					req = signedTransfer(f.alice, "alice", "bob", Millicredit, fmt.Sprintf("a%d-%d", g, i))
				} else {
					req = signedTransfer(f.bob, "bob", "alice", Millicredit, fmt.Sprintf("b%d-%d", g, i))
				}
				// Insufficient funds under contention is acceptable; corruption is not.
				_, _ = f.bank.Transfer(req)
			}
		}(g)
	}
	wg.Wait()
	if got := f.bank.TotalMoney(); got != before {
		t.Errorf("concurrent transfers changed total: %v -> %v", before, got)
	}
	aBal, _ := f.bank.Balance("alice")
	bBal, _ := f.bank.Balance("bob")
	if aBal < 0 || bBal < 0 {
		t.Errorf("negative balance: alice=%v bob=%v", aBal, bBal)
	}
}

func TestAccountsListing(t *testing.T) {
	f := newFixture(t)
	ids := f.bank.Accounts()
	if len(ids) != 2 {
		t.Errorf("accounts = %v", ids)
	}
}
