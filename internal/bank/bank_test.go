package bank

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"tycoongrid/internal/metrics"
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

// TestTransferPhasesObservedOnce: bank_transfer_phase_seconds gets one
// observation per phase for each transfer bank_transfer_seconds observes — an
// executed transfer and a replay — and none for a refusal.
func TestTransferPhasesObservedOnce(t *testing.T) {
	f := newFixture(t)
	counts := func(d metrics.Snapshot) (transfers uint64, phases map[string]uint64) {
		phases = map[string]uint64{}
		for _, h := range d.Histograms {
			switch h.Name {
			case "bank_transfer_seconds":
				transfers = h.Count
			case "bank_transfer_phase_seconds":
				phases[h.Labels["phase"]] = h.Count
			}
		}
		return transfers, phases
	}
	req := signedTransfer(f.alice, "alice", "bob", Credit, "phases")
	for _, c := range []struct {
		name string
		req  TransferRequest
		want uint64
	}{
		{"executed", req, 1},
		{"replayed", req, 1},
		{"forged", signedTransfer(f.bob, "alice", "bob", Credit, "phases-forged"), 0},
		{"overdrawn", signedTransfer(f.alice, "alice", "bob", 1000*Credit, "phases-big"), 0},
		{"reused", signedTransfer(f.alice, "alice", "bob", 2*Credit, "phases"), 0},
	} {
		snap := metrics.Default().Snapshot()
		_, err := f.bank.Transfer(c.req)
		if (err == nil) != (c.want == 1) {
			t.Fatalf("%s: %v", c.name, err)
		}
		transfers, phases := counts(metrics.Default().Snapshot().Delta(snap))
		if transfers != c.want {
			t.Errorf("%s: bank_transfer_seconds observed %d times, want %d", c.name, transfers, c.want)
		}
		for _, phase := range []string{"verify", "sign", "ledger", "wal"} {
			if phases[phase] != c.want {
				t.Errorf("%s: bank_transfer_phase_seconds{phase=%q} observed %d times, want %d", c.name, phase, phases[phase], c.want)
			}
		}
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

// TestSigningBytesGolden pins the canonical encodings byte for byte: every
// signature ever issued — in a client's hand, in a WAL record, in a snapshot —
// is over these bytes. The hex was taken from the bytes.Buffer encoder these
// replaced. The receipt cases cover a zone other than UTC, a whole second
// (RFC3339Nano drops the fraction) and the zero time.
func TestSigningBytesGolden(t *testing.T) {
	zone := time.FixedZone("X", -7*3600-30*60)
	for _, c := range []struct {
		got  []byte
		want string
	}{
		{(&TransferRequest{From: "alice", To: "bob/job-1", Amount: 30*Credit + 7, Nonce: "c0-00000042"}).SigningBytes(),
			"00000000000000167479636f6f6e677269642d7472616e736665722d76310000000000000005616c6963650000000000000009626f622f6a6f622d3100000000000000080000000001c9c387000000000000000b63302d3030303030303432"},
		{(&TransferRequest{}).SigningBytes(),
			"00000000000000167479636f6f6e677269642d7472616e736665722d763100000000000000000000000000000000000000000000000800000000000000000000000000000000"},
		{(&TransferRequest{From: "a", To: "b", Amount: -1, Nonce: "é"}).SigningBytes(),
			"00000000000000167479636f6f6e677269642d7472616e736665722d76310000000000000001610000000000000001620000000000000008ffffffffffffffff0000000000000002c3a9"},
		{(&Receipt{TransferID: "c0-00000042", From: "alice", To: "bob/job-1", Amount: 30*Credit + 7,
			At: time.Date(2006, 6, 19, 12, 34, 56, 789000000, time.UTC)}).SigningBytes(),
			"00000000000000157479636f6f6e677269642d726563656970742d7631000000000000000b63302d30303030303034320000000000000005616c6963650000000000000009626f622f6a6f622d3100000000000000080000000001c9c3870000000000000018323030362d30362d31395431323a33343a35362e3738395a"},
		{(&Receipt{TransferID: "n", From: "a", To: "b", Amount: 1, At: time.Date(2026, 10, 15, 1, 2, 3, 0, zone)}).SigningBytes(),
			"00000000000000157479636f6f6e677269642d726563656970742d763100000000000000016e000000000000000161000000000000000162000000000000000800000000000000010000000000000014323032362d31302d31355430383a33323a30335a"},
		{(&Receipt{At: time.Date(1999, 12, 31, 23, 59, 59, 123456789, zone)}).SigningBytes(),
			"00000000000000157479636f6f6e677269642d726563656970742d763100000000000000000000000000000000000000000000000000000000000000080000000000000000000000000000001e323030302d30312d30315430373a32393a35392e3132333435363738395a"},
		{(&Receipt{TransferID: "z"}).SigningBytes(),
			"00000000000000157479636f6f6e677269642d726563656970742d763100000000000000017a00000000000000000000000000000000000000000000000800000000000000000000000000000014303030312d30312d30315430303a30303a30305a"},
	} {
		if got := hex.EncodeToString(c.got); got != c.want {
			t.Errorf("signing bytes\n got %s\nwant %s", got, c.want)
		}
	}
	req := TransferRequest{From: "alice", To: "bob", Amount: Credit, Nonce: "c0-00000042"}
	r := Receipt{TransferID: "c0-00000042", From: "alice", To: "bob", Amount: Credit, At: time.Now()}
	if n := testing.AllocsPerRun(100, func() { req.SigningBytes(); r.SigningBytes() }); n != 2 {
		t.Errorf("a request's and a receipt's signing bytes take %v allocations, want one each", n)
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
	// A kind that is not one of the four EntryKinds moves nothing.
	lines := len(f.bank.History("broker"))
	if err := f.bank.MoveInternal(broker, "broker", "broker/job-1", Credit, EntryKind("bonus"), ""); err == nil {
		t.Error("a move of kind \"bonus\" was accepted")
	}
	if bal, _ := f.bank.Balance("broker/job-1"); bal != 20*Credit || len(f.bank.History("broker")) != lines {
		t.Errorf("a refused kind left job-1 at %v and broker with %d entries, want 20 and %d", bal, len(f.bank.History("broker")), lines)
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

// TestTransferRetentionAllocationBound: what an in-memory bank keeps of one
// executed transfer — one ledger line pointing at the two accounts, which
// holds the receipt's facts, and the line's Seq under its nonce — is at most
// maxPerTransfer bytes of heap, and no facts are kept apart from the ledger
// while it holds every line. The requests are signed beforehand and kept
// alive, so their strings are not counted, and the receipts Transfer returns
// are dropped. It read ≈ 430 B while the bank kept every receipt whole,
// signature included, and every ledger entry with its account ids and its
// time as a time.Time, and ≈ 180 B while the receipts map held each
// receipt's facts beside its line.
func TestTransferRetentionAllocationBound(t *testing.T) {
	const accounts, transfers, maxPerTransfer = 64, 8000, 120
	ca, err := pki.NewDeterministicCA("/CN=CA", [32]byte{1})
	if err != nil {
		t.Fatal(err)
	}
	bankID, err := ca.IssueDeterministic("/CN=Bank", [32]byte{2})
	if err != nil {
		t.Fatal(err)
	}
	owner, err := ca.IssueDeterministic("/O=Grid/CN=Owner", [32]byte{3})
	if err != nil {
		t.Fatal(err)
	}
	b := New(bankID, sim.WallClock{})
	ids := make([]AccountID, accounts)
	for i := range ids {
		ids[i] = AccountID(fmt.Sprintf("acct-%02d", i))
		if _, err := b.CreateAccount(ids[i], owner.Public()); err != nil {
			t.Fatal(err)
		}
		if err := b.Deposit(ids[i], MustCredits(1_000_000), "grant"); err != nil {
			t.Fatal(err)
		}
	}
	reqs := make([]TransferRequest, transfers)
	for i := range reqs {
		to := ids[(i+1+i/accounts%(accounts-1))%accounts] // never ids[i%accounts]
		reqs[i] = signedTransfer(owner, ids[i%accounts], to, Credit, fmt.Sprintf("keep-%05d", i))
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, req := range reqs {
		if _, err := b.Transfer(req); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(reqs)
	runtime.KeepAlive(b)
	per := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / transfers
	if per > maxPerTransfer {
		t.Errorf("the bank keeps %.0f B of heap per transfer, want <= %d", per, maxPerTransfer)
	} else {
		t.Logf("the bank keeps %.0f B of heap per transfer", per)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.ledger) != accounts+transfers || len(b.kept) != 0 {
		t.Errorf("the ledger holds %d lines and %d receipts' facts are kept apart, want %d and 0",
			len(b.ledger), len(b.kept), accounts+transfers)
	}
}

// TestAccountRetentionAllocationBound: what an in-memory bank keeps of one
// drained escrow account — its record and its slot in the account map, and
// its share of a ledger retained at 8 192 lines — is at most maxPerEscrow
// bytes of heap. Each escrow is created, funded from a user, charged to a
// host and refunded, the round trip of one bid; the ids are built
// beforehand and kept alive, so their strings are not counted. It read
// ≈ 142 B while the bank kept each account as the exported Account: two
// strings, a key slice header and a time.Time.
func TestAccountRetentionAllocationBound(t *testing.T) {
	const escrows, maxPerEscrow = 100_000, 100
	ca, err := pki.NewDeterministicCA("/CN=CA", [32]byte{1})
	if err != nil {
		t.Fatal(err)
	}
	bankID, err := ca.IssueDeterministic("/CN=Bank", [32]byte{2})
	if err != nil {
		t.Fatal(err)
	}
	op, err := ca.IssueDeterministic("/O=Grid/CN=Operator", [32]byte{3})
	if err != nil {
		t.Fatal(err)
	}
	b := New(bankID, sim.NewEngine(), WithLedgerRetention(8192))
	for _, id := range []AccountID{"user", "host"} {
		if _, err := b.CreateAccount(id, op.Public()); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Deposit("user", MustCredits(1_000_000), "grant"); err != nil {
		t.Fatal(err)
	}
	ids := make([]AccountID, escrows)
	for i := range ids {
		ids[i] = AccountID(fmt.Sprintf("bid-%06d", i))
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, id := range ids {
		if _, err := b.CreateAccount(id, op.Public()); err != nil {
			t.Fatal(err)
		}
		for _, mv := range []struct {
			from, to AccountID
			amount   Amount
			kind     EntryKind
		}{
			{"user", id, 2 * Credit, EntryTransfer},
			{id, "host", Credit / 2, EntryCharge},
			{id, "user", 2*Credit - Credit/2, EntryRefund},
		} {
			if err := b.MoveInternal(op, mv.from, mv.to, mv.amount, mv.kind, ""); err != nil {
				t.Fatal(err)
			}
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(ids)
	runtime.KeepAlive(b)
	per := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / escrows
	if per > maxPerEscrow {
		t.Errorf("the bank keeps %.1f B of heap per drained escrow, want <= %d", per, maxPerEscrow)
	} else {
		t.Logf("the bank keeps %.1f B of heap per drained escrow", per)
	}
}

// TestEscrowLifecycleAllocationBound: the round trip of one bid's escrow —
// created, funded from a user, charged to a host and refunded, its view
// dropped — allocates at most maxObjects heap objects: the account's record,
// and a share of the account map's and the ledger's growth. The ids are built
// beforehand. It read 2.01 objects (≈ 263 B) an escrow while CreateAccount
// returned its view through a pointer, which every such caller threw away.
func TestEscrowLifecycleAllocationBound(t *testing.T) {
	const escrows, maxObjects = 100_000, 1.05
	ca, err := pki.NewDeterministicCA("/CN=CA", [32]byte{1})
	if err != nil {
		t.Fatal(err)
	}
	bankID, err := ca.IssueDeterministic("/CN=Bank", [32]byte{2})
	if err != nil {
		t.Fatal(err)
	}
	op, err := ca.IssueDeterministic("/O=Grid/CN=Operator", [32]byte{3})
	if err != nil {
		t.Fatal(err)
	}
	b := New(bankID, sim.NewEngine(), WithLedgerRetention(8192))
	for _, id := range []AccountID{"user", "host"} {
		if _, err := b.CreateAccount(id, op.Public()); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Deposit("user", MustCredits(1_000_000), "grant"); err != nil {
		t.Fatal(err)
	}
	ids := make([]AccountID, escrows)
	for i := range ids {
		ids[i] = AccountID(fmt.Sprintf("bid-%06d", i))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, id := range ids {
		if _, err := b.CreateAccount(id, op.Public()); err != nil {
			t.Fatal(err)
		}
		if err := b.MoveInternal(op, "user", id, 2*Credit, EntryTransfer, ""); err != nil {
			t.Fatal(err)
		}
		if err := b.MoveInternal(op, id, "host", Credit/2, EntryCharge, ""); err != nil {
			t.Fatal(err)
		}
		if err := b.MoveInternal(op, id, "user", 2*Credit-Credit/2, EntryRefund, ""); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	objects := float64(after.Mallocs-before.Mallocs) / escrows
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / escrows
	if objects > maxObjects {
		t.Errorf("an escrow's round trip allocates %.2f heap objects (%.0f B), want <= %.2f", objects, bytes, maxObjects)
	} else {
		t.Logf("an escrow's round trip allocates %.2f heap objects (%.0f B)", objects, bytes)
	}
}
