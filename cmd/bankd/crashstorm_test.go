package main

// Crash-storm test: run the real bankd binary against a durable data dir,
// SIGKILL it mid-traffic over and over (sometimes via externally-timed
// kills, sometimes via failpoints armed inside the WAL append/fsync/snapshot
// paths), and verify after the dust settles that money is exactly conserved,
// every balance is what the acknowledged receipts imply, and no acknowledged
// transfer was applied twice.

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"testing"
	"time"

	"tycoongrid/internal/bank"
	"tycoongrid/internal/fault/failpoint"
	"tycoongrid/internal/httpapi"
	"tycoongrid/internal/pki"
)

var stormCycles = flag.Int("storm.cycles", 20, "SIGKILL/restart cycles in TestCrashStorm")

// stormProc manages one bankd process lifetime. A reaper goroutine owns
// Wait, so both "we killed it" and "a failpoint killed it" end up in the
// same done channel.
type stormProc struct {
	bin     string
	addr    string
	dataDir string
	cmd     *exec.Cmd
	done    chan struct{}
}

func (p *stormProc) start(t *testing.T, failpoints string) {
	t.Helper()
	cmd := exec.Command(p.bin,
		"-addr", p.addr,
		"-data-dir", p.dataDir,
		"-fsync", "always",
		"-keyseed", "storm",
		"-snapshot-every", "64",
		"-trace", "0",
	)
	cmd.Env = append(os.Environ(), failpoint.EnvVar+"="+failpoints)
	cmd.Stdout = io.Discard
	cmd.Stderr = io.Discard
	if err := cmd.Start(); err != nil {
		t.Fatalf("start bankd: %v", err)
	}
	p.cmd = cmd
	p.done = make(chan struct{})
	go func(c *exec.Cmd, done chan struct{}) {
		c.Wait()
		close(done)
	}(cmd, p.done)
}

// kill SIGKILLs the process (tolerating one that already crashed itself via
// a failpoint) and waits for the reaper.
func (p *stormProc) kill() {
	p.cmd.Process.Signal(syscall.SIGKILL)
	<-p.done
	p.cmd = nil
}

// waitReady polls the readiness probe. It returns false early if the
// process dies first (a failpoint fired during startup or recovery).
func (p *stormProc) waitReady(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	url := "http://" + p.addr + "/healthz/ready"
	for time.Now().Before(deadline) {
		resp, err := http.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return true
			}
		}
		select {
		case <-p.done:
			return false
		case <-time.After(5 * time.Millisecond):
		}
	}
	return false
}

// stormClient is a minimal retrying JSON client: the storm keeps killing the
// server, so every call loops until it gets a definitive HTTP status or the
// stop channel closes.
type stormClient struct {
	base string
	stop <-chan struct{}
}

var errStormStopped = errors.New("storm finished")

func (c *stormClient) do(method, path string, body, out any) (int, error) {
	var payload []byte
	if body != nil {
		payload, _ = json.Marshal(body)
	}
	for {
		select {
		case <-c.stop:
			return 0, errStormStopped
		default:
		}
		req, err := http.NewRequest(method, c.base+path, bytes.NewReader(payload))
		if err != nil {
			return 0, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			time.Sleep(5 * time.Millisecond) // server is down; wait out the restart
			continue
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			time.Sleep(5 * time.Millisecond) // recovering; not an answer yet
			continue
		}
		if resp.StatusCode/100 != 2 {
			return resp.StatusCode, fmt.Errorf("%s %s: %d %s", method, path, resp.StatusCode, data)
		}
		if out != nil {
			if err := json.Unmarshal(data, out); err != nil {
				return resp.StatusCode, err
			}
		}
		return resp.StatusCode, nil
	}
}

func transferWire(req bank.TransferRequest) httpapi.TransferWire {
	return httpapi.TransferWire{
		From:   string(req.From),
		To:     string(req.To),
		Amount: req.Amount.String(),
		Nonce:  req.Nonce,
		Sig:    base64.RawURLEncoding.EncodeToString(req.Sig),
	}
}

// buildBankd builds this directory's bankd into a test temp dir.
func buildBankd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "bankd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build bankd: %v\n%s", err, out)
	}
	return bin
}

// freeAddr returns a loopback address nothing listens on.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

func TestCrashStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("crash storm builds and repeatedly kills a real bankd binary")
	}
	addr := freeAddr(t)
	proc := &stormProc{bin: buildBankd(t), addr: addr, dataDir: t.TempDir()}
	proc.start(t, "")
	if !proc.waitReady(10 * time.Second) {
		t.Fatal("bankd never became ready")
	}
	defer func() {
		if proc.cmd != nil {
			proc.kill()
		}
	}()

	// Client-side identities; the bank only ever sees public keys.
	ca, err := pki.NewDeterministicCA("/CN=StormCA", [32]byte{41})
	if err != nil {
		t.Fatal(err)
	}
	alice, err := ca.IssueDeterministic("/CN=Alice", [32]byte{42})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	boot := &stormClient{base: "http://" + addr, stop: stop}
	for _, id := range []string{"alice", "bob"} {
		if _, err := boot.do("POST", "/accounts", httpapi.CreateAccountRequest{
			ID: id, OwnerKey: httpapi.EncodeKey(alice.Public()),
		}, nil); err != nil {
			t.Fatalf("create %s: %v", id, err)
		}
	}
	const deposit = 100_000
	for _, id := range []string{"alice", "bob"} {
		if _, err := boot.do("POST", "/deposits", httpapi.DepositRequest{
			ID: id, Amount: (deposit * bank.Credit).String(), Memo: "storm seed",
		}, nil); err != nil {
			t.Fatalf("deposit %s: %v", id, err)
		}
	}

	// Acknowledged state, for the post-storm audit.
	type ack struct {
		wire    httpapi.TransferWire
		receipt httpapi.ReceiptWire
	}
	var mu sync.Mutex
	acked := map[string]ack{}
	inflight := map[string]httpapi.TransferWire{} // by worker: the request not yet acknowledged

	var wg sync.WaitGroup

	// Two transfer workers, one each way with its own nonce prefix, so kills
	// land between two writers' group-committed records. Every acknowledged
	// receipt is recorded so it can be replay-audited after the storm.
	// Retried POSTs whose first attempt actually landed are answered from the
	// receipt store, so any non-2xx here is a real bug.
	worker := func(from, to bank.AccountID, prefix string) {
		defer wg.Done()
		c := &stormClient{base: "http://" + addr, stop: stop}
		for i := 0; ; i++ {
			req := bank.TransferRequest{
				From: from, To: to,
				Amount: bank.Amount(1+i%5) * bank.Credit,
				Nonce:  fmt.Sprintf("%s-%04d", prefix, i),
			}
			req.Sig = alice.Sign(req.SigningBytes())
			wire := transferWire(req)
			mu.Lock()
			inflight[prefix] = wire
			mu.Unlock()
			var rc httpapi.ReceiptWire
			if _, err := c.do("POST", "/transfers", wire, &rc); err != nil {
				if !errors.Is(err, errStormStopped) {
					t.Errorf("transfer %s: %v", req.Nonce, err)
				}
				return
			}
			mu.Lock()
			acked[req.Nonce] = ack{wire, rc}
			delete(inflight, prefix)
			mu.Unlock()
		}
	}
	wg.Add(2)
	go worker("alice", "bob", "t")
	go worker("bob", "alice", "r")

	// The storm: alternate externally-timed SIGKILLs with failpoint-armed
	// runs that crash inside the durability layer itself.
	rng := rand.New(rand.NewSource(4117))
	for cycle := 0; cycle < *stormCycles; cycle++ {
		time.Sleep(time.Duration(20+rng.Intn(60)) * time.Millisecond)
		proc.kill()

		var failpoints string
		switch cycle % 3 {
		case 1:
			failpoints = fmt.Sprintf("durable.wal.append=0.002@%d,durable.wal.sync=0.002@%d",
				cycle, cycle+1000)
		case 2:
			failpoints = fmt.Sprintf("durable.snapshot.written=0.05@%d,durable.snapshot.rotate=0.05@%d",
				cycle, cycle+2000)
		}
		proc.start(t, failpoints)
		if !proc.waitReady(10 * time.Second) {
			// The failpoint fired during startup or recovery; restart clean.
			proc.kill()
			proc.start(t, "")
			if !proc.waitReady(10 * time.Second) {
				t.Fatalf("cycle %d: bankd did not recover", cycle)
			}
		}
	}

	close(stop)
	wg.Wait()

	// One final clean restart, then audit.
	proc.kill()
	proc.start(t, "")
	if !proc.waitReady(10 * time.Second) {
		t.Fatal("bankd did not recover for the audit")
	}
	audit := &stormClient{base: "http://" + addr, stop: make(chan struct{})}

	// Money exactly conserved: every credit deposited is still there, no
	// matter where the kills landed.
	var totals httpapi.TotalsResponse
	if _, err := audit.do("GET", "/total", nil, &totals); err != nil {
		t.Fatal(err)
	}
	if want := (2 * deposit * bank.Credit).String(); totals.Conserved != want {
		t.Errorf("conserved = %s, want %s", totals.Conserved, want)
	}

	// Every balance is what the receipts imply. The request each worker had
	// in flight when the storm stopped may or may not have landed; sending it
	// once more settles which — it lands now or answers its stored receipt —
	// and its receipt joins the acknowledged ones.
	mu.Lock()
	defer mu.Unlock()
	for _, wire := range inflight {
		var rc httpapi.ReceiptWire
		if _, err := audit.do("POST", "/transfers", wire, &rc); err != nil {
			t.Fatalf("in-flight %s: %v", wire.Nonce, err)
		}
		acked[wire.Nonce] = ack{wire, rc}
	}
	want := map[string]bank.Amount{"alice": deposit * bank.Credit, "bob": deposit * bank.Credit}
	for _, a := range acked {
		amt, err := bank.ParseAmount(a.receipt.Amount)
		if err != nil {
			t.Fatal(err)
		}
		want[a.receipt.From] -= amt
		want[a.receipt.To] += amt
	}
	balances := func() map[string]string {
		out := map[string]string{}
		for id := range want {
			var info httpapi.AccountInfo
			if _, err := audit.do("GET", "/accounts/"+id, nil, &info); err != nil {
				t.Fatal(err)
			}
			out[id] = info.Balance
		}
		return out
	}
	before := balances()
	for id, amt := range want {
		if before[id] != amt.String() {
			t.Errorf("%s holds %s, receipts imply %s", id, before[id], amt)
		}
	}
	t.Logf("storm summary: %d cycles, %d acked transfers", *stormCycles, len(acked))

	// No duplicate receipt application: replaying every acknowledged
	// transfer returns the original bank signature (stored receipt), and the
	// replays move no money.
	for nonce, a := range acked {
		var rc httpapi.ReceiptWire
		if _, err := audit.do("POST", "/transfers", a.wire, &rc); err != nil {
			t.Fatalf("replay %s: %v", nonce, err)
		}
		if rc.BankSig != a.receipt.BankSig {
			t.Errorf("transfer %s: replayed receipt differs — applied more than once?", nonce)
		}
	}
	if after := balances(); after["alice"] != before["alice"] || after["bob"] != before["bob"] {
		t.Errorf("replay audit moved money: %v -> %v", before, after)
	}
}
