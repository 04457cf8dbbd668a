package bank

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"tycoongrid/internal/pki"
	"tycoongrid/internal/sim"
)

// A transfer verifies and signs between two lock sections, so every decision
// that depends on other transfers — the nonce, the funds — must be taken in
// the second. These tests race transfers whose crypto overlaps (run them with
// -race); each round releases its goroutines together, so on two or more
// cores both are between their sections at once.

// raceBank is a bank on a step clock, so that two admissions never stamp the
// same time and a receipt signed for the losing one differs from the stored
// one, with alice funded and bob empty.
func raceBank(t *testing.T, grant Amount) (*Bank, *pki.Identity) {
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
	b := New(bankID, &stepClock{t: sim.Epoch})
	for _, id := range []AccountID{"alice", "bob"} {
		if _, err := b.CreateAccount(id, alice.Public()); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Deposit("alice", grant, "grant"); err != nil {
		t.Fatal(err)
	}
	return b, alice
}

type transferResult struct {
	r   Receipt
	err error
}

// race sends every request from its own goroutine, all released at once, and
// returns the results in request order.
func race(b *Bank, reqs ...TransferRequest) []transferResult {
	out := make([]transferResult, len(reqs))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i, req := range reqs {
		wg.Add(1)
		go func(i int, req TransferRequest) {
			defer wg.Done()
			<-start
			out[i].r, out[i].err = b.Transfer(req)
		}(i, req)
	}
	close(start)
	wg.Wait()
	return out
}

func storedReceipt(b *Bank, nonce string) (Receipt, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	r, ok := b.receipts[nonce]
	return r, ok
}

// TestConcurrentSameRequestDebitsOnce: two goroutines send one signed request
// at once. Exactly one debit happens, and both get the stored receipt, byte
// for byte — not one each of two receipts signed at two admission times.
func TestConcurrentSameRequestDebitsOnce(t *testing.T) {
	const rounds = 50
	b, alice := raceBank(t, rounds*Credit)
	for i := 0; i < rounds; i++ {
		req := signedTransfer(alice, "alice", "bob", Credit, fmt.Sprintf("same-%d", i))
		res := race(b, req, req)
		for j, got := range res {
			if got.err != nil {
				t.Fatalf("round %d: sender %d: %v", i, j, got.err)
			}
		}
		stored, ok := storedReceipt(b, req.Nonce)
		if !ok {
			t.Fatalf("round %d: no stored receipt", i)
		}
		for j, got := range res {
			if !reflect.DeepEqual(got.r, stored) || !bytes.Equal(got.r.BankSig, stored.BankSig) {
				t.Fatalf("round %d: sender %d got %+v, the bank stored %+v", i, j, got.r, stored)
			}
		}
		if !VerifyReceipt(b.PublicKey(), stored) {
			t.Fatalf("round %d: the stored receipt does not verify", i)
		}
		if got, _ := b.Balance("bob"); got != Amount(i+1)*Credit {
			t.Fatalf("round %d: bob holds %v, want %v: the request was applied twice", i, got, Amount(i+1)*Credit)
		}
	}
	if n := len(b.History("alice")); n != 1+rounds {
		t.Errorf("alice's history has %d entries, want the grant and %d transfers", n, rounds)
	}
}

// TestConcurrentNonceReuseOneWins: two goroutines send different terms on one
// nonce at once. One is applied; the other gets ErrNonceReused and a zero
// receipt.
func TestConcurrentNonceReuseOneWins(t *testing.T) {
	const rounds = 50
	b, alice := raceBank(t, 3*rounds*Credit)
	var paid Amount
	for i := 0; i < rounds; i++ {
		nonce := fmt.Sprintf("reuse-%d", i)
		res := race(b,
			signedTransfer(alice, "alice", "bob", Credit, nonce),
			signedTransfer(alice, "alice", "bob", 2*Credit, nonce))
		var won *transferResult
		for j := range res {
			switch got := &res[j]; {
			case got.err == nil:
				if won != nil {
					t.Fatalf("round %d: both terms were applied on one nonce", i)
				}
				won = got
			case !errors.Is(got.err, ErrNonceReused):
				t.Fatalf("round %d: sender %d: %v, want ErrNonceReused", i, j, got.err)
			case !reflect.DeepEqual(got.r, Receipt{}):
				t.Fatalf("round %d: the refused sender got receipt %+v", i, got.r)
			}
		}
		if won == nil {
			t.Fatalf("round %d: neither terms applied: %v / %v", i, res[0].err, res[1].err)
		}
		if stored, _ := storedReceipt(b, nonce); !reflect.DeepEqual(stored, won.r) {
			t.Fatalf("round %d: the winner got %+v, the bank stored %+v", i, won.r, stored)
		}
		paid += won.r.Amount
		if got, _ := b.Balance("bob"); got != paid {
			t.Fatalf("round %d: bob holds %v, the winners paid %v", i, got, paid)
		}
	}
}

// TestConcurrentOverdrawRefused: more concurrent transfers than one account
// can pay. Money is conserved, no balance goes negative, exactly what the
// account held is paid out, and every refused call returns
// ErrInsufficientFunds and a zero receipt, with no bank signature.
func TestConcurrentOverdrawRefused(t *testing.T) {
	const rounds, senders, grant = 20, 8, 3
	b, alice := raceBank(t, grant*Credit)
	for i := 0; i < rounds; i++ {
		reqs := make([]TransferRequest, senders)
		for j := range reqs {
			from, to := AccountID("alice"), AccountID("bob")
			if i%2 == 1 { // the money goes back and forth
				from, to = to, from
			}
			reqs[j] = signedTransfer(alice, from, to, Credit, fmt.Sprintf("over-%d-%d", i, j))
		}
		paid := 0
		for j, got := range race(b, reqs...) {
			switch {
			case got.err == nil:
				paid++
			case !errors.Is(got.err, ErrInsufficientFunds):
				t.Fatalf("round %d: sender %d: %v, want ErrInsufficientFunds", i, j, got.err)
			case got.r.BankSig != nil || !reflect.DeepEqual(got.r, Receipt{}):
				t.Fatalf("round %d: refused sender %d got receipt %+v", i, j, got.r)
			}
		}
		a, _ := b.Balance("alice")
		o, _ := b.Balance("bob")
		if a < 0 || o < 0 || a+o != grant*Credit || b.TotalMoney() != grant*Credit || b.Drift() != 0 {
			t.Fatalf("round %d: alice %v, bob %v, total %v, drift %v", i, a, o, b.TotalMoney(), b.Drift())
		}
		if paid != grant {
			t.Fatalf("round %d: %d transfers of 1 went through out of an account holding %d", i, paid, grant)
		}
	}
}

// BenchmarkBankTransferParallel runs signed transfers into an in-memory bank
// from every proc at once, each between its own two accounts on its own
// nonce, pre-signed so that only the bank's work is timed. Run it at
// -cpu 1,2: with the signatures outside the ledger lock, transfers/s at two
// procs should read ≥ 1.4× one proc on a two-core machine (make perf-gates).
func BenchmarkBankTransferParallel(b *testing.B) {
	ca, err := pki.NewDeterministicCA("/CN=CA", [32]byte{1})
	if err != nil {
		b.Fatal(err)
	}
	bankID, err := ca.IssueDeterministic("/CN=Bank", [32]byte{2})
	if err != nil {
		b.Fatal(err)
	}
	owner, err := ca.IssueDeterministic("/O=Grid/CN=Owner", [32]byte{3})
	if err != nil {
		b.Fatal(err)
	}
	const pairs = 64
	bk := New(bankID, sim.WallClock{})
	for p := 0; p < pairs; p++ {
		for _, side := range []string{"from", "to"} {
			id := AccountID(fmt.Sprintf("%s-%02d", side, p))
			if _, err := bk.CreateAccount(id, owner.Public()); err != nil {
				b.Fatal(err)
			}
		}
		if err := bk.Deposit(AccountID(fmt.Sprintf("from-%02d", p)), MustCredits(1_000_000), "bench"); err != nil {
			b.Fatal(err)
		}
	}
	reqs := make([]TransferRequest, b.N)
	for i := range reqs {
		p := i % pairs
		reqs[i] = signedTransfer(owner, AccountID(fmt.Sprintf("from-%02d", p)), AccountID(fmt.Sprintf("to-%02d", p)),
			Credit, fmt.Sprintf("bench-%08d", i))
	}
	var next atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := bk.Transfer(reqs[next.Add(1)-1]); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "transfers/s")
}
