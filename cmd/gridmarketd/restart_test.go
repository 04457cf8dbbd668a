package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/url"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"tycoongrid/internal/bank"
	"tycoongrid/internal/httpapi"
	"tycoongrid/internal/jobapi"
	"tycoongrid/internal/token"
)

// daemon is one gridmarketd process serving on addr. A reaper goroutine owns
// Wait and closes done, so stderr is safe to read once done is closed.
type daemon struct {
	base   string
	cmd    *exec.Cmd
	stderr bytes.Buffer
	done   chan struct{}
}

// startDaemon starts bin on addr and waits until it is ready.
func startDaemon(t *testing.T, bin, addr string) *daemon {
	t.Helper()
	d := &daemon{base: "http://" + addr, cmd: exec.Command(bin, "-addr", addr), done: make(chan struct{})}
	d.cmd.Stderr = &d.stderr
	if err := d.cmd.Start(); err != nil {
		t.Fatalf("start gridmarketd: %v", err)
	}
	go func() { d.cmd.Wait(); close(d.done) }()
	t.Cleanup(d.kill)
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if resp, err := http.Get(d.base + "/healthz/ready"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	d.kill()
	t.Fatalf("gridmarketd not ready after 10 s:\n%s", d.stderr.String())
	return nil
}

// kill SIGKILLs the process, if it still runs, and waits for the reaper.
func (d *daemon) kill() {
	select {
	case <-d.done:
		return
	default:
	}
	d.cmd.Process.Signal(syscall.SIGKILL)
	<-d.done
}

// call sends body (a string is sent raw, anything else as JSON) and decodes a
// 200 answer into out.
func (d *daemon) call(t *testing.T, method, path string, body, out any) {
	t.Helper()
	var payload []byte
	if s, ok := body.(string); ok {
		payload = []byte(s)
	} else if body != nil {
		payload, _ = json.Marshal(body)
	}
	req, err := http.NewRequest(method, d.base+path, bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s %s: %d %s", method, path, resp.StatusCode, data)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("%s %s: %v in %s", method, path, err, data)
		}
	}
}

// createUser creates name with a 500-credit grant and mints it a 50-credit
// token.
func (d *daemon) createUser(t *testing.T, name string) string {
	t.Helper()
	d.call(t, "POST", "/demo/users", map[string]string{"name": name, "grant": "500"}, nil)
	var tok struct{ Token string }
	d.call(t, "POST", "/demo/tokens", map[string]string{"user": name, "amount": "50"}, &tok)
	return tok.Token
}

// runJob submits a job paid with tok and returns it once it is FINISHED or
// FAILED.
func (d *daemon) runJob(t *testing.T, tok string) jobapi.JobWire {
	t.Helper()
	var job jobapi.JobWire
	d.call(t, "POST", "/jobs",
		"&(executable=a.sh)(count=2)(cputime=2)(walltime=30)(transfertoken="+tok+")", &job)
	deadline := time.Now().Add(30 * time.Second)
	for job.State != "FINISHED" && job.State != "FAILED" {
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after 30 s", job.ID, job.State)
		}
		time.Sleep(100 * time.Millisecond)
		d.call(t, "GET", "/jobs?id="+url.QueryEscape(job.ID), nil, &job)
	}
	return job
}

func buildGridmarketd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "gridmarketd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build gridmarketd: %v\n%s", err, out)
	}
	return bin
}

func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// TestRestartKeepsNoState walks README's curl flow on the real binary, then
// SIGKILLs it and starts it again on the same flags. The restarted daemon
// drew fresh keys, so the old token fails the bank-signature check, while a
// re-created user's fresh token runs to FINISHED and the new bank holds
// exactly the one grant it made.
func TestRestartKeepsNoState(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs a real gridmarketd binary")
	}
	bin, addr := buildGridmarketd(t), freeAddr(t)
	d := startDaemon(t, bin, addr)
	old := d.createUser(t, "alice")
	if job := d.runJob(t, old); job.State != "FINISHED" {
		t.Fatalf("first job %s (%s), want FINISHED", job.State, job.Error)
	}
	d.kill()

	d = startDaemon(t, bin, addr)
	if job := d.runJob(t, old); job.State != "FAILED" || !strings.Contains(job.Error, token.ErrBadBankSignature.Error()) {
		t.Errorf("pre-restart token: job %s (%s), want FAILED on the bank signature", job.State, job.Error)
	}
	if job := d.runJob(t, d.createUser(t, "alice")); job.State != "FINISHED" {
		t.Errorf("re-created alice's token: job %s (%s), want FINISHED", job.State, job.Error)
	}
	var totals httpapi.TotalsResponse
	d.call(t, "GET", "/bank/total", nil, &totals)
	if want := (500 * bank.Credit).String(); totals.Total != want || totals.Conserved != want {
		t.Errorf("bank total %s, conserved %s; want both %s", totals.Total, totals.Conserved, want)
	}
}

// TestSpeedupMustBeFinitePositive: flag.Float64 parses NaN and Inf, and NaN
// fails every comparison, so a -speedup NaN daemon once came up ready with an
// engine that never advanced. It must exit non-zero naming the flag.
func TestSpeedupMustBeFinitePositive(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs a real gridmarketd binary")
	}
	bin := buildGridmarketd(t)
	for _, v := range []string{"NaN", "Inf", "0"} {
		var stderr bytes.Buffer
		cmd := exec.Command(bin, "-addr", freeAddr(t), "-speedup", v)
		cmd.Stderr = &stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()
		select {
		case err := <-done:
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() == 0 {
				t.Errorf("-speedup %s: exited with %v, want a non-zero status", v, err)
			}
			if !strings.Contains(stderr.String(), "-speedup") {
				t.Errorf("-speedup %s: stderr does not name the flag:\n%s", v, stderr.String())
			}
		case <-time.After(10 * time.Second):
			cmd.Process.Kill()
			<-done
			t.Errorf("-speedup %s: still running after 10 s:\n%s", v, stderr.String())
		}
	}
}
