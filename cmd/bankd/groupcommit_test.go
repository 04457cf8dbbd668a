package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"tycoongrid/internal/bank"
	"tycoongrid/internal/httpapi"
	"tycoongrid/internal/pki"
)

// TestGroupCommitFanIn drives a real bankd at -fsync always with fanIn
// closed-loop clients — each sends a signed transfer and waits for its
// receipt before it sends the next — the fan-in GridBank and Tycoon's
// brokers put on one bank. Over the transfers it reads /metrics twice and
// counts: every transfer appends one WAL record (wal_records_total), and
// the fsyncs (wal_fsync_seconds_count) are group commits, so there must be
// at least minPerFsync transfers a fsync. With one writer the ratio is 1 by
// construction; 32 waiters give the leader of each batch a queue to take.
//
// Ten runs on a 2-vCPU machine with a disk-backed temp dir read 1.96–7.77
// transfers a fsync, and five with the log on tmpfs, where a fsync costs
// next to nothing, 1.17–1.20 (EXPERIMENTS.md, "What an idle host holds").
// Half the lowest disk reading, 0.98, is below the 1.00 of a log that never
// groups, so it would hold nothing; minPerFsync sits between that 1.00 and
// the tmpfs readings instead. It is a floor on batching as the log does it
// today, not a target: tuning the flusher is a claim of its own.
func TestGroupCommitFanIn(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives a real bankd binary")
	}
	const (
		fanIn       = 32
		perClient   = 25
		minPerFsync = 1.05
	)
	addr := freeAddr(t)
	proc := &stormProc{bin: buildBankd(t), addr: addr, dataDir: t.TempDir()}
	proc.start(t, "")
	defer proc.kill()
	if !proc.waitReady(10 * time.Second) {
		t.Fatal("bankd never became ready")
	}
	base := "http://" + addr

	ca, err := pki.NewDeterministicCA("/CN=FanInCA", [32]byte{51})
	if err != nil {
		t.Fatal(err)
	}
	owner, err := ca.IssueDeterministic("/CN=Owner", [32]byte{52})
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: fanIn}}
	defer client.CloseIdleConnections()
	post := func(path string, body, out any) error {
		payload, err := json.Marshal(body)
		if err != nil {
			return err
		}
		resp, err := client.Post(base+path, "application/json", bytes.NewReader(payload))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode/100 != 2 {
			return fmt.Errorf("POST %s: %d", path, resp.StatusCode)
		}
		if out != nil {
			return json.NewDecoder(resp.Body).Decode(out)
		}
		return nil
	}

	// Each client moves money from its own account to the next one's, so
	// no two clients' transfers are refused for each other's funds.
	account := func(i int) bank.AccountID { return bank.AccountID(fmt.Sprintf("c%02d", i%fanIn)) }
	for i := 0; i < fanIn; i++ {
		if err := post("/accounts", httpapi.CreateAccountRequest{ID: string(account(i)), OwnerKey: httpapi.EncodeKey(owner.Public())}, nil); err != nil {
			t.Fatal(err)
		}
		if err := post("/deposits", httpapi.DepositRequest{ID: string(account(i)), Amount: (1000 * bank.Credit).String(), Memo: "fan-in seed"}, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Signed up front, so the clients' own signing does not take the
	// server's cores while it runs.
	wires := make([][]httpapi.TransferWire, fanIn)
	for c := range wires {
		for k := 0; k < perClient; k++ {
			req := bank.TransferRequest{From: account(c), To: account(c + 1), Amount: bank.Credit, Nonce: fmt.Sprintf("c%02d-%03d", c, k)}
			req.Sig = owner.Sign(req.SigningBytes())
			wires[c] = append(wires[c], transferWire(req))
		}
	}

	records0, fsyncs0 := walCounts(t, client, base)
	var wg sync.WaitGroup
	errs := make(chan error, fanIn)
	for c := range wires {
		wg.Add(1)
		go func(ws []httpapi.TransferWire) {
			defer wg.Done()
			for _, w := range ws {
				var rc httpapi.ReceiptWire
				if err := post("/transfers", w, &rc); err != nil {
					errs <- fmt.Errorf("transfer %s: %w", w.Nonce, err)
					return
				}
			}
		}(wires[c])
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	records1, fsyncs1 := walCounts(t, client, base)

	transfers := fanIn * perClient
	records, fsyncs := records1-records0, fsyncs1-fsyncs0
	if records != transfers {
		t.Errorf("%d transfers appended %d WAL records, want one each", transfers, records)
	}
	if fsyncs == 0 {
		t.Fatalf("%d transfers at -fsync always ran no fsync", transfers)
	}
	perFsync := float64(transfers) / float64(fsyncs)
	if perFsync < minPerFsync {
		t.Errorf("%d closed-loop clients: %d transfers in %d fsyncs, %.2f a fsync, want >= %.2f", fanIn, transfers, fsyncs, perFsync, minPerFsync)
	} else {
		t.Logf("%d closed-loop clients: %d transfers in %d fsyncs, %.2f a fsync", fanIn, transfers, fsyncs, perFsync)
	}
}

// walCounts scrapes bankd's /metrics for wal_records_total and the count of
// wal_fsync_seconds.
func walCounts(t *testing.T, client *http.Client, base string) (records, fsyncs int) {
	t.Helper()
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	records, fsyncs = -1, -1
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, value, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		var into *int
		switch name {
		case "wal_records_total":
			into = &records
		case "wal_fsync_seconds_count":
			into = &fsyncs
		default:
			continue
		}
		n, err := strconv.Atoi(value)
		if err != nil {
			t.Fatalf("/metrics: %s = %q", name, value)
		}
		*into = n
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if records < 0 || fsyncs < 0 {
		t.Fatalf("/metrics lacks wal_records_total or wal_fsync_seconds_count (read %d, %d)", records, fsyncs)
	}
	return records, fsyncs
}
