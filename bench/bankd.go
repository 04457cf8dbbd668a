package main

import (
	"bufio"
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"tycoongrid/internal/bank"
	"tycoongrid/internal/httpapi"
	"tycoongrid/internal/pki"
)

// The transfer-path workloads: a real bankd in its own process, so server
// CPU and memory are separable from the load generator's, driven over HTTP
// by closed-loop connections — brokers and agents wait for a receipt before
// their next transfer.
const (
	bankConnections = 2 // selects the regime (2 cores: one per side); never scaled
	bankAccounts    = 64
	bankWarmup      = 500
	bankPairs       = 4096 // pre-generated (from, to) cycle per connection
	bankSlice       = 1000 // transfers of one connection per slice and per latency chunk
)

// Transfers each connection sends per requested second: the calibration
// that makes ten seconds of work take about ten seconds on the sizing machine.
var bankRate = map[string]float64{"bank-mem": 1500, "bank-fsync": 950}

var bankDeposit = bank.MustCredits(1_000_000)

// buildBankd compiles cmd/bankd into dir and returns the binary's path and
// how long the build took.
func buildBankd(dir string) (string, float64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", 0, err
	}
	bin, err := filepath.Abs(filepath.Join(dir, "bankd"))
	if err != nil {
		return "", 0, err
	}
	t0 := time.Now()
	if out, err := exec.Command("go", "build", "-o", bin, "tycoongrid/cmd/bankd").CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("building bankd: %v\n%s", err, out)
	}
	return bin, time.Since(t0).Seconds(), nil
}

// bankdProc is one running bankd.
type bankdProc struct {
	cmd    *exec.Cmd
	base   string
	stderr bytes.Buffer
	client *http.Client
}

// startBankd boots bankd on a free loopback port (durable when dataDir is
// set) and returns once /healthz/ready answers 200.
func startBankd(bin, dataDir string) (*bankdProc, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	args := []string{"-addr", addr, "-trace", "0", "-keyseed", "bench"}
	if dataDir != "" {
		args = append(args, "-data-dir", dataDir, "-fsync", "always")
	}
	p := &bankdProc{cmd: exec.Command(bin, args...), base: "http://" + addr,
		client: &http.Client{Timeout: 10 * time.Second}}
	p.cmd.Stderr = &p.stderr
	if err := p.cmd.Start(); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := p.client.Get(p.base + "/healthz/ready")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	p.kill()
	return nil, fmt.Errorf("bankd not ready after 15s:\n%s", p.stderr.String())
}

// kill stops bankd the hard way (SIGKILL) and waits for it to be gone.
func (p *bankdProc) kill() {
	if p == nil || p.cmd.Process == nil {
		return
	}
	_ = p.cmd.Process.Signal(syscall.SIGKILL)
	_ = p.cmd.Wait() // the error is the kill itself
}

func (p *bankdProc) pid() int { return p.cmd.Process.Pid }

// call does one JSON request outside the timed path.
func (p *bankdProc) call(method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, p.base+path, body)
	if err != nil {
		return err
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, data)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// scrape reads /metrics into sample name (with labels) -> value.
func (p *bankdProc) scrape() (map[string]float64, error) {
	resp, err := p.client.Get(p.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	samples := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			samples[line[:i]] = v
		}
	}
	return samples, sc.Err()
}

// family sums every sample of a metric family whose labels contain want.
func family(samples map[string]float64, name, want string) (total float64) {
	for k, v := range samples {
		if base, labels, _ := strings.Cut(k, "{"); base == name && strings.Contains(labels, want) {
			total += v
		}
	}
	return total
}

// bankConn is one closed-loop connection's state and timings.
type bankConn struct {
	client                               *http.Client
	pairs                                [][2]int
	n                                    int // transfers issued so far, for nonces and the pair cycle
	sign, encode, roundtrip, verify, all []int64
	failed                               int
	firstErr                             error
	rec                                  *recorder
}

// bankLoad is the generator's view of the bank: the keys, and the balances
// the acknowledged receipts imply.
type bankLoad struct {
	proc    *bankdProc
	owner   *pki.Identity
	bankKey []byte
	mu      sync.Mutex
	delta   [bankAccounts]bank.Amount // net credits per account implied by receipts
	done    atomic.Int64              // transfers acknowledged, all connections
}

func acct(i int) string { return fmt.Sprintf("a%03d", i) }

// transfer signs, sends and verifies one transfer, timing each stage.
func (l *bankLoad) transfer(c *bankConn, id int, record bool) {
	pair := c.pairs[c.n%len(c.pairs)]
	req := bank.TransferRequest{
		From: bank.AccountID(acct(pair[0])), To: bank.AccountID(acct(pair[1])), Amount: bank.Credit,
		Nonce: fmt.Sprintf("c%d-%08d", id, c.n), // fixed width: every WAL record the same size
	}
	c.n++
	t0 := time.Now()
	req.Sig = l.owner.Sign(req.SigningBytes())
	t1 := time.Now()
	body, _ := json.Marshal(httpapi.TransferWire{
		From: string(req.From), To: string(req.To), Amount: req.Amount.String(), Nonce: req.Nonce,
		Sig: base64.RawURLEncoding.EncodeToString(req.Sig),
	})
	t2 := time.Now()
	status, data, err := post(c.client, l.proc.base+"/transfers", body)
	t3 := time.Now()
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("transfer %s: HTTP %d: %s", req.Nonce, status, data)
	}
	if err == nil {
		var rw httpapi.ReceiptWire
		var rc bank.Receipt
		if err = json.Unmarshal(data, &rw); err == nil {
			if rc, err = rw.ToReceipt(); err == nil {
				if !bank.VerifyReceipt(l.bankKey, rc) || rc.From != req.From || rc.To != req.To || rc.Amount != req.Amount {
					err = fmt.Errorf("transfer %s: receipt does not verify", req.Nonce)
				}
			}
		}
	}
	t4 := time.Now()
	if err != nil {
		c.failed++
		if c.firstErr == nil {
			c.firstErr = err
		}
		return
	}
	l.mu.Lock()
	l.delta[pair[0]] -= req.Amount
	l.delta[pair[1]] += req.Amount
	l.mu.Unlock()
	l.done.Add(1)
	if !record {
		return
	}
	c.sign = append(c.sign, t1.Sub(t0).Nanoseconds())
	c.encode = append(c.encode, t2.Sub(t1).Nanoseconds())
	c.roundtrip = append(c.roundtrip, t3.Sub(t2).Nanoseconds())
	c.verify = append(c.verify, t4.Sub(t3).Nanoseconds())
	c.all = append(c.all, t4.Sub(t0).Nanoseconds())
	if c.rec != nil {
		n := int64(id)<<32 | int64(c.n)
		root := c.rec.add("transfer", t0, t4, -1, n)
		c.rec.add("client.sign", t0, t1, root, n)
		c.rec.add("client.encode", t1, t2, root, n)
		c.rec.add("http.roundtrip", t2, t3, root, n)
		c.rec.add("client.verify_receipt", t3, t4, root, n)
	}
}

func post(client *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// audit checks conservation and every balance against the receipts.
func (l *bankLoad) audit(out *outcome, when string) {
	var tot httpapi.TotalsResponse
	if err := l.proc.call("GET", "/total", nil, &tot); err != nil {
		out.violate("%s: GET /total: %v", when, err)
		return
	}
	if want := (bankAccounts * bankDeposit).String(); tot.Conserved != want {
		out.violate("%s: conserved %s, deposits were %s", when, tot.Conserved, want)
	}
	for i := 0; i < bankAccounts; i++ {
		var info httpapi.AccountInfo
		if err := l.proc.call("GET", "/accounts/"+acct(i), nil, &info); err != nil {
			out.violate("%s: %v", when, err)
			return
		}
		if want := (bankDeposit + l.delta[i]).String(); info.Balance != want {
			out.violate("%s: account %s holds %s, receipts imply %s", when, acct(i), info.Balance, want)
			return
		}
	}
}

func runBank(cfg runConfig) (*outcome, error) {
	durable := cfg.Workload == "bank-fsync"
	bin, buildS, err := buildBankd(cfg.BuildDir)
	if err != nil {
		return nil, err
	}
	runDir, err := os.MkdirTemp(cfg.BuildDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	var caSeed, ownerSeed [32]byte
	copy(caSeed[:], fmt.Sprintf("bench-bank-ca-%016x", uint64(cfg.Seed)))
	copy(ownerSeed[:], fmt.Sprintf("bench-bank-owner-%016x", uint64(cfg.Seed)))
	ca, err := pki.NewDeterministicCA("/CN=BenchLoadCA", caSeed)
	if err != nil {
		return nil, err
	}
	load := &bankLoad{}
	if load.owner, err = ca.IssueDeterministic("/CN=BenchOwner", ownerSeed); err != nil {
		return nil, err
	}

	// Set-up: boot bankd and fund the accounts over HTTP. Repeated on fresh
	// processes; the last one is kept.
	setupRepeats, warmup := 5, bankWarmup
	if cfg.Toy {
		setupRepeats, warmup = 1, 50
	}
	var dataDir string
	boot := func() (err error) {
		load.proc.kill()
		if durable {
			if dataDir, err = os.MkdirTemp(runDir, "data-"); err != nil {
				return err
			}
		}
		if load.proc, err = startBankd(bin, dataDir); err != nil {
			return err
		}
		for i := 0; i < bankAccounts; i++ {
			if err := load.proc.call("POST", "/accounts", httpapi.CreateAccountRequest{
				ID: acct(i), OwnerKey: httpapi.EncodeKey(load.owner.Public())}, nil); err != nil {
				return err
			}
			if err := load.proc.call("POST", "/deposits", httpapi.DepositRequest{
				ID: acct(i), Amount: bankDeposit.String(), Memo: "bench"}, nil); err != nil {
				return err
			}
		}
		return nil
	}
	defer func() { load.proc.kill() }()
	setup, err := medianSetup(cfg.Workload, setupRepeats, boot)
	if err != nil {
		return nil, err
	}
	var pk httpapi.PublicKeyResponse
	if err := load.proc.call("GET", "/publickey", nil, &pk); err != nil {
		return nil, err
	}
	if load.bankKey, err = base64.RawURLEncoding.DecodeString(pk.Key); err != nil {
		return nil, fmt.Errorf("bank public key: %w", err)
	}

	// Inputs from the seed, before the clock: who pays whom.
	src := rand.New(rand.NewSource(cfg.Seed))
	conns := make([]*bankConn, bankConnections)
	for i := range conns {
		c := &bankConn{client: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
			Timeout:   30 * time.Second,
		}}
		for j := 0; j < bankPairs; j++ {
			from := src.Intn(bankAccounts)
			c.pairs = append(c.pairs, [2]int{from, (from + 1 + src.Intn(bankAccounts-1)) % bankAccounts})
		}
		conns[i] = c
	}
	eachConn := func(fn func(id int, c *bankConn)) {
		parallel(bankConnections, func(id int) { fn(id, conns[id]) })
	}
	eachConn(func(id int, c *bankConn) {
		for i := 0; i < warmup/bankConnections; i++ {
			load.transfer(c, id, false)
		}
	})

	before, err := load.proc.scrape()
	if err != nil {
		return nil, err
	}
	walBefore := dirBytes(dataDir)
	perConn := int(cfg.Seconds * bankRate[cfg.Workload])
	if cfg.Toy {
		perConn = 300
	}
	// The run is cut into rounds of bankSlice transfers per connection, with
	// both connections idle at each boundary: there bankd's CPU time and the
	// machine's speed are read with nothing else running.
	var marks []mark
	var cpuErr error
	bankdCPU := func() time.Duration {
		cpu, err := procCPU(load.proc.pid())
		if err != nil {
			cpuErr = err
		}
		return cpu
	}
	clientCPUBefore := selfCPU()
	start := time.Now()
	for _, c := range conns {
		c.rec = newRecorder(cfg.Trace, start)
	}
	for sent := 0; sent < perConn; sent += bankSlice {
		marks = append(marks, cut(int(load.done.Load()), bankdCPU))
		eachConn(func(id int, c *bankConn) {
			for i := 0; i < min(bankSlice, perConn-sent); i++ {
				load.transfer(c, id, true)
			}
		})
	}
	marks = append(marks, cut(int(load.done.Load()), bankdCPU))
	if cpuErr != nil {
		return nil, cpuErr
	}
	wall := time.Since(start)
	clientCPU := selfCPU() - clientCPUBefore
	serverCPU := marks[len(marks)-1].endCPU - marks[0].startCPU
	after, err := load.proc.scrape()
	if err != nil {
		return nil, err
	}
	walAfter := dirBytes(dataDir)

	out := newOutcome()
	var roundtrip, sign, encode, verify, all []int64
	for _, c := range conns {
		out.attempted += len(c.roundtrip) + c.failed
		out.failed += c.failed
		if c.firstErr != nil {
			out.violate("%d transfers failed, first: %v", c.failed, c.firstErr)
		}
		roundtrip = append(roundtrip, c.roundtrip...)
		sign = append(sign, c.sign...)
		encode = append(encode, c.encode...)
		verify = append(verify, c.verify...)
		all = append(all, c.all...)
	}
	done := len(roundtrip)
	if done == 0 {
		return nil, errors.New("no transfer completed")
	}
	var p50s, tails [][]float64
	for _, c := range conns {
		p50s = append(p50s, chunkQuantiles(c.roundtrip, bankSlice, 0.50))
		tails = append(tails, chunkQuantiles(c.roundtrip, bankSlice, 0.99))
	}
	if err := out.measured(cfg.Workload, setup, marks, p50s, tails, load.proc.pid()); err != nil {
		return nil, err
	}
	load.audit(out, "after the timed run")
	if durable {
		// Crash and recover: every acknowledged receipt must have survived.
		load.proc.kill()
		if load.proc, err = startBankd(bin, dataDir); err != nil {
			return nil, fmt.Errorf("restart after SIGKILL: %w", err)
		}
		load.audit(out, "after SIGKILL and recovery")
		out.info("crash check: SIGKILL, restart on the same directory, %d balances audited", bankAccounts)
	}

	secs := wall.Seconds()
	out.info("op = one signed transfer (request write -> response body read) on %d closed-loop connections; tail = p99; cpu and rss are bankd's; slice = %d transfers of one connection", bankConnections, bankSlice)
	out.info("whole run: %.0f transfers/s over %.2fs", float64(done)/secs, secs)
	if !cfg.Trace {
		return out, nil
	}

	l := out.layer
	l["driver.build_s"] = buildS
	l["client.sign_us"] = quantile(sign, 0.5) / 1e3
	l["client.encode_us"] = quantile(encode, 0.5) / 1e3
	l["http.roundtrip_us"] = quantile(roundtrip, 0.5) / 1e3
	l["http.roundtrip_p99_us"] = quantile(roundtrip, 0.99) / 1e3
	l["client.verify_receipt_us"] = quantile(verify, 0.5) / 1e3
	// Client CPU per connection-second: when this nears 1 the generator, not
	// bankd, is the limit.
	l["driver.share"] = clientCPU.Seconds() / (secs * bankConnections)
	l["http.roundtrip_share"] = float64(sum(roundtrip)) / float64(sum(all))
	l["client.share"] = float64(sum(sign)+sum(encode)+sum(verify)) / float64(sum(all))

	d := func(name, labels string) float64 { return family(after, name, labels) - family(before, name, labels) }
	handlerN := d("http_request_duration_seconds_count", `route="/transfers"`)
	handlerUs := 1e6 * d("http_request_duration_seconds_sum", `route="/transfers"`) / math.Max(1, handlerN)
	l["bankd.cpu_us_per_transfer"] = float64(serverCPU.Microseconds()) / float64(done)
	l["httpapi.handler_us"] = handlerUs
	l["bank.transfer_us"] = 1e6 * d("bank_transfer_seconds_sum", "") / math.Max(1, d("bank_transfer_seconds_count", ""))
	l["net.share"] = 1 - handlerUs/l["http.roundtrip_us"]
	l["bank.transfers"] = d("bank_transfers_total", "")
	if fsyncs := d("wal_fsync_seconds_count", ""); fsyncs > 0 {
		l["durable.fsync_us"] = 1e6 * d("wal_fsync_seconds_sum", "") / fsyncs
		l["durable.transfers_per_fsync"] = float64(done) / fsyncs
		l["durable.records_per_transfer"] = d("wal_records_total", "") / float64(done)
		l["durable.bytes_per_transfer"] = float64(walAfter-walBefore) / float64(done)
	}
	l["driver.ops_per_s"] = float64(done) / secs

	rec := conns[0].rec
	for _, c := range conns[1:] {
		rec.merge(c.rec)
	}
	replayer{cfg.Toy}.bank(l, durable, runDir)
	return out, out.traced(rec, cfg, wall*bankConnections)
}

// dirBytes is the total size of the files under dir (0 for no dir).
func dirBytes(dir string) (total int64) {
	if dir == "" {
		return 0
	}
	_ = filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return total
}
