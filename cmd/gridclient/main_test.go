package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tycoongrid/internal/auction"
	"tycoongrid/internal/auctioneerapi"
	"tycoongrid/internal/bank"
	"tycoongrid/internal/box"
	"tycoongrid/internal/httpapi"
	"tycoongrid/internal/jobapi"
	"tycoongrid/internal/token"
)

// stdout runs cmd with os.Stdout captured and returns what it printed.
func stdout(t *testing.T, cmd func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	printed := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		printed <- string(b)
	}()
	err = cmd()
	os.Stdout = saved
	w.Close()
	out := <-printed
	if err != nil {
		t.Fatalf("%v (printed %q)", err, out)
	}
	return out
}

// TestSubmitAndTimeline submits an xRSL file to a job service, runs the job
// to its end and prints its timeline: the printed id is the job's, and the
// timeline is the one the service holds.
func TestSubmitAndTimeline(t *testing.T) {
	cfg := box.DefaultConfig()
	cfg.Users, cfg.GrantPerUser = 1, 1000*bank.Credit
	b, err := box.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := jobapi.NewService(b.Manager, b.Engine)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc)
	defer srv.Close()
	tok, err := b.MintToken(b.Users[0], 25*bank.Credit)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := token.Encode(tok)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "job.xrsl")
	xrsl := fmt.Sprintf("&(executable=scan.sh)(count=2)(cputime=5)(walltime=60)(transfertoken=%s)", enc)
	if err := os.WriteFile(path, []byte(xrsl), 0o600); err != nil {
		t.Fatal(err)
	}

	out := stdout(t, func() error { return submitCmd([]string{"-grid", srv.URL, "-xrsl", path}) })
	client := jobapi.NewClient(srv.URL, nil)
	jobs, err := client.Jobs()
	if err != nil || len(jobs) != 1 {
		t.Fatalf("jobs = %+v, %v; want the one submitted", jobs, err)
	}
	id := jobs[0].ID
	if !strings.HasPrefix(out, "submitted "+id+" (") {
		t.Errorf("submit printed %q, want the job id %s", out, id)
	}

	svc.Drive(b.Engine.Now().Add(time.Hour))
	out = stdout(t, func() error { return timelineCmd([]string{"-grid", srv.URL, "-id", id}) })
	tl, err := client.Timeline(id)
	if err != nil {
		t.Fatal(err)
	}
	if want := "job " + id + " state=FINISHED"; !strings.HasPrefix(out, want) {
		t.Errorf("timeline printed %q, want it to start %q", out, want)
	}
	if lines := strings.Count(out, "\n"); lines != 1+len(tl.Events) || len(tl.Events) == 0 {
		t.Errorf("timeline printed %d lines for %d events:\n%s", lines, len(tl.Events), out)
	}
	for _, e := range tl.Events {
		if !strings.Contains(out, " "+e.Name) {
			t.Errorf("timeline lacks event %s:\n%s", e.Name, out)
		}
	}
}

// TestMarketStatus prints an auctioneer's status with two bidders on its
// book: the spot price is the market's, and each bidder has a share line.
func TestMarketStatus(t *testing.T) {
	start := time.Now()
	m, err := auction.NewMarket(auction.Config{HostID: "h1", CapacityMHz: 2800, Start: start})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := auctioneerapi.NewService(m, map[string]int{"hour": 360})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc)
	defer srv.Close()
	for _, bidder := range []auction.BidderID{"alice", "bob"} {
		if _, err := m.PlaceBid(bidder, 36*bank.Credit, start.Add(time.Hour)); err != nil {
			t.Fatal(err)
		}
	}
	m.Tick(start.Add(10 * time.Second))

	out := stdout(t, func() error { return marketCmd("status", []string{"-auctioneer", srv.URL}) })
	if m.SpotPrice() <= 0 {
		t.Fatalf("spot price %v after a tick with bids", m.SpotPrice())
	}
	if want := fmt.Sprintf("host h1: capacity 2800 MHz, spot price %.6g credits/s", m.SpotPrice()); !strings.HasPrefix(out, want) {
		t.Errorf("status printed %q, want it to start %q", out, want)
	}
	for _, bidder := range []string{"alice", "bob"} {
		if !strings.Contains(out, fmt.Sprintf("\n  %-20s share  50.0%%", bidder)) {
			t.Errorf("status lacks %s's half share:\n%s", bidder, out)
		}
	}
}

// TestTraceRefusesOversizedTree: a trace tree past httpapi.MaxBodyBytes is
// an error, not a tree printed cut short; one of exactly that size prints
// whole.
func TestTraceRefusesOversizedTree(t *testing.T) {
	sizes := map[string]int{"fits": httpapi.MaxBodyBytes, "over": httpapi.MaxBodyBytes + 1}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		size, ok := sizes[strings.TrimPrefix(r.URL.Path, "/debug/traces/")]
		if !ok || r.URL.Query().Get("format") != "tree" {
			http.NotFound(w, r)
			return
		}
		io.WriteString(w, strings.Repeat("x", size))
	}))
	defer srv.Close()

	out := stdout(t, func() error { return traceCmd([]string{"-grid", srv.URL, "-id", "fits"}) })
	if len(out) != sizes["fits"] {
		t.Errorf("a %d-byte tree printed %d bytes", sizes["fits"], len(out))
	}
	err := traceCmd([]string{"-grid", srv.URL, "-id", "over"})
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Errorf("a %d-byte tree: %v, want it refused", sizes["over"], err)
	}
}
