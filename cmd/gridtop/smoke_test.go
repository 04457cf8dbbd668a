package main

// Telemetry smoke test (`make telemetry-smoke`): boot the real bankd and
// slsd binaries — bankd with handler-latency chaos armed via the
// TYCOON_CHAOS_HANDLER_* environment — drive traffic, and assert that
//
//   - /metrics/history and /slo respond on a live daemon,
//   - the injected latency trips the request-latency-p99 SLO within one
//     evaluation window,
//   - slsd's fleet aggregator scrapes the peer and serves /fleet, and a
//     fleet :p99 series is the peer's own, point for point, and
//   - gridtop -once renders a frame showing the violation (daemon mode)
//     and the peer table (fleet mode).

import (
	"encoding/json"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tycoongrid/internal/fault"
	"tycoongrid/internal/slo"
	"tycoongrid/internal/telemetry"
)

// buildBinary compiles a command package into dir and returns the path.
func buildBinary(t *testing.T, dir, pkg string) string {
	t.Helper()
	bin := filepath.Join(dir, filepath.Base(pkg))
	build := exec.Command("go", "build", "-o", bin, pkg)
	build.Dir = repoRoot(t)
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build %s: %v\n%s", pkg, err, out)
	}
	return bin
}

func repoRoot(t *testing.T) string {
	t.Helper()
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		t.Fatalf("go env GOMOD: %v", err)
	}
	return filepath.Dir(strings.TrimSpace(string(out)))
}

// freeAddr reserves an ephemeral localhost port (released just before the
// daemon binds it — the same small race the crash-storm test accepts).
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("reserve port: %v", err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// startDaemon launches bin with args/env and registers cleanup.
func startDaemon(t *testing.T, bin string, args []string, extraEnv ...string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), extraEnv...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("start %s: %v", bin, err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
}

// waitReady polls a readiness probe until it answers 200.
func waitReady(t *testing.T, base string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/healthz/ready")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("%s never became ready", base)
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: bad JSON: %v", url, err)
		}
	}
	return resp.StatusCode
}

func TestTelemetrySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process smoke test")
	}
	dir := t.TempDir()
	bankd := buildBinary(t, dir, "./cmd/bankd")
	slsd := buildBinary(t, dir, "./cmd/slsd")
	gridtop := buildBinary(t, dir, "./cmd/gridtop")

	// bankd with 120ms max injected handler latency: every service request
	// is delayed Uniform[0,120ms), so the request p99 blows through the
	// 50ms SLO threshold as soon as traffic flows.
	bankAddr := freeAddr(t)
	startDaemon(t, bankd,
		[]string{"-addr", bankAddr, "-keyseed", "smoke", "-trace", "0",
			"-scrape-interval", "200ms"},
		fault.EnvHandlerLatency+"=120ms",
		fault.EnvHandlerSeed+"=1",
	)
	bankBase := "http://" + bankAddr
	waitReady(t, bankBase, 10*time.Second)

	// slsd hosting the fleet aggregator over bankd.
	slsAddr := freeAddr(t)
	startDaemon(t, slsd,
		[]string{"-addr", slsAddr, "-scrape-interval", "200ms",
			"-peers", "bankd=" + bankBase})
	slsBase := "http://" + slsAddr
	waitReady(t, slsBase, 10*time.Second)

	// Drive traffic through the chaos-wrapped service routes so the
	// latency histogram accumulates injected delay. Unknown account reads
	// are still instrumented requests; a handful is plenty at 200ms scrape.
	trafficStop := make(chan struct{})
	go func() {
		for {
			select {
			case <-trafficStop:
				return
			default:
			}
			resp, err := http.Get(bankBase + "/accounts/nobody")
			if err == nil {
				resp.Body.Close()
			}
		}
	}()
	defer close(trafficStop)

	// The observability surface answers immediately.
	var hist telemetry.HistoryResponse
	if code := getJSON(t, bankBase+"/metrics/history", &hist); code != http.StatusOK {
		t.Fatalf("/metrics/history = %d", code)
	}
	if code := getJSON(t, bankBase+"/slo", nil); code != http.StatusOK {
		t.Fatalf("/slo = %d", code)
	}

	// The injected latency must trip request-latency-p99 within one
	// evaluation window. The fast window is Window/12 = 25s; with a 200ms
	// self-scrape the bad p99 samples land within a couple of seconds, so
	// 30s of polling is already generous.
	deadline := time.Now().Add(30 * time.Second)
	violated := false
	for time.Now().Before(deadline) {
		var rep slo.Report
		getJSON(t, bankBase+"/slo", &rep)
		for _, st := range rep.Statuses {
			if st.Objective.Name == "request-latency-p99" && st.Violating {
				violated = true
			}
		}
		if violated {
			break
		}
		time.Sleep(250 * time.Millisecond)
	}
	if !violated {
		t.Fatal("latency chaos never tripped request-latency-p99")
	}

	// The self-scraped history now has the derived p99 series.
	getJSON(t, bankBase+"/metrics/history", &hist)
	hasP99 := false
	for _, name := range hist.Names {
		if strings.HasPrefix(name, "http_request_duration_seconds") &&
			strings.HasSuffix(name, ":p99") {
			hasP99 = true
		}
	}
	if !hasP99 {
		t.Fatalf("no derived request-latency p99 series in history names: %v", hist.Names)
	}

	// The aggregator sees the peer as up with samples ingested.
	fleetDeadline := time.Now().Add(15 * time.Second)
	peerUp := false
	for time.Now().Before(fleetDeadline) {
		var fr telemetry.FleetReport
		getJSON(t, slsBase+"/fleet", &fr)
		for _, p := range fr.Peers {
			if p.Name == "bankd" && p.Up && p.Samples > 0 {
				peerUp = true
			}
		}
		if peerUp {
			break
		}
		time.Sleep(250 * time.Millisecond)
	}
	if !peerUp {
		t.Fatal("aggregator never scraped bankd successfully")
	}

	// The fleet view derives nothing: a request-latency p99 series on slsd is
	// bankd's own, point for point, as far as the last scrape reached. The
	// fleet side is read first, so bankd can only be ahead.
	var fleetHist, ownHist telemetry.HistoryResponse
	const pattern = "http_request_duration_seconds*"
	getJSON(t, slsBase+"/fleet/history?raw=1&window=1h&series="+url.QueryEscape("bankd/"+pattern), &fleetHist)
	getJSON(t, bankBase+"/metrics/history?raw=1&window=1h&series="+url.QueryEscape(pattern), &ownHist)
	compared := false
	for _, fs := range fleetHist.Series {
		if !strings.HasSuffix(fs.Name, ":p99") || len(fs.Points) == 0 || compared {
			continue
		}
		for _, own := range ownHist.Series {
			if "bankd/"+own.Name != fs.Name {
				continue
			}
			compared = true
			if len(own.Points) < len(fs.Points) {
				t.Fatalf("%s: fleet has %d points, bankd only %d", fs.Name, len(fs.Points), len(own.Points))
			}
			for i, p := range fs.Points {
				if p != own.Points[i] {
					t.Fatalf("%s[%d]: fleet %+v, bankd %+v", fs.Name, i, p, own.Points[i])
				}
			}
		}
	}
	if !compared {
		t.Fatalf("no bankd/http_request_duration_seconds…:p99 fleet series to compare: %+v", fleetHist)
	}

	// gridtop -once in daemon mode shows the violation.
	out, err := exec.Command(gridtop, "-once", "-target", bankBase).CombinedOutput()
	if err != nil {
		t.Fatalf("gridtop -once (daemon): %v\n%s", err, out)
	}
	frameText := string(out)
	if !strings.Contains(frameText, "(daemon)") {
		t.Errorf("daemon frame missing mode header:\n%s", frameText)
	}
	if !strings.Contains(frameText, "[VIOL] request-latency-p99") {
		t.Errorf("daemon frame missing SLO violation:\n%s", frameText)
	}

	// gridtop -once in fleet mode shows the peer table.
	out, err = exec.Command(gridtop, "-once", "-target", slsBase).CombinedOutput()
	if err != nil {
		t.Fatalf("gridtop -once (fleet): %v\n%s", err, out)
	}
	frameText = string(out)
	if !strings.Contains(frameText, "(fleet)") {
		t.Errorf("fleet frame missing mode header:\n%s", frameText)
	}
	if !strings.Contains(frameText, "bankd") {
		t.Errorf("fleet frame missing peer row:\n%s", frameText)
	}
}
