package main

import (
	"bytes"
	"errors"
	"os/exec"
	"strings"
	"testing"
	"time"

	"tycoongrid/internal/durable"
)

// TestRetiredWALRecordExitsNonZero: a data dir whose log holds a retired
// two-phase record (kind 5, a prepared hold) must stop bankd at start-up with
// a non-zero exit, never bring it up with a ledger that lacks the hold's
// money. The record is written by hand: its encoder is gone.
func TestRetiredWALRecordExitsNonZero(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs a real bankd binary")
	}
	dir := t.TempDir()
	st, err := durable.Open(dir, durable.Options{Sync: durable.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Recover(nil, nil); err != nil {
		t.Fatal(err)
	}
	// kind 5, tx "tx", from "alice", to "bob", amount 1e6, at 0, nonce flag.
	prepare := []byte{5, 2, 't', 'x', 5, 'a', 'l', 'i', 'c', 'e', 3, 'b', 'o', 'b', 0x80, 0x89, 0x7a, 0, 1}
	if err := st.Append(prepare); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	var stderr bytes.Buffer
	cmd := exec.Command(buildBankd(t), "-addr", freeAddr(t), "-data-dir", dir, "-trace", "0")
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
			t.Fatalf("bankd exited with %v, want a non-zero status", err)
		}
		if !strings.Contains(stderr.String(), "unknown wal record kind 5") {
			t.Errorf("stderr does not name the retired record:\n%s", stderr.String())
		}
	case <-time.After(10 * time.Second):
		cmd.Process.Kill()
		<-done
		t.Fatalf("bankd still running 10 s after start on a retired log:\n%s", stderr.String())
	}
}
