package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// reopen recovers a store at dir and returns the snapshot payload plus the
// replayed records.
func reopen(t *testing.T, dir string, opts Options) (*Store, []byte, [][]byte) {
	t.Helper()
	st, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	var snap []byte
	var recs [][]byte
	_, err = st.Recover(
		func(p []byte) error { snap = append([]byte(nil), p...); return nil },
		func(p []byte) error { recs = append(recs, append([]byte(nil), p...)); return nil },
	)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	return st, snap, recs
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncAlways, SyncInterval, SyncNone} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			st, snap, recs := reopen(t, dir, Options{Sync: policy})
			if snap != nil || len(recs) != 0 {
				t.Fatalf("fresh dir recovered snap=%v recs=%d", snap, len(recs))
			}
			var want [][]byte
			for i := 0; i < 100; i++ {
				p := []byte(fmt.Sprintf("record-%03d", i))
				want = append(want, p)
				if err := st.Append(p); err != nil {
					t.Fatalf("Append: %v", err)
				}
			}
			if err := st.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			st2, snap, recs := reopen(t, dir, Options{Sync: policy})
			defer st2.Close()
			if snap != nil {
				t.Fatalf("unexpected snapshot")
			}
			if len(recs) != len(want) {
				t.Fatalf("recovered %d records, want %d", len(recs), len(want))
			}
			for i := range want {
				if !bytes.Equal(recs[i], want[i]) {
					t.Fatalf("record %d = %q, want %q", i, recs[i], want[i])
				}
			}
		})
	}
}

func TestSnapshotTruncatesLog(t *testing.T) {
	dir := t.TempDir()
	st, _, _ := reopen(t, dir, Options{Sync: SyncAlways})
	for i := 0; i < 10; i++ {
		if err := st.Append([]byte(fmt.Sprintf("pre-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Snapshot([]byte("state-after-10")); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	for i := 0; i < 3; i++ {
		if err := st.Append([]byte(fmt.Sprintf("post-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Old generation files must be gone.
	if _, err := os.Stat(filepath.Join(dir, "wal-00000000.log")); !os.IsNotExist(err) {
		t.Fatalf("generation 0 wal still present: %v", err)
	}

	st2, snap, recs := reopen(t, dir, Options{Sync: SyncAlways})
	defer st2.Close()
	if string(snap) != "state-after-10" {
		t.Fatalf("snapshot = %q", snap)
	}
	if len(recs) != 3 || string(recs[0]) != "post-0" {
		t.Fatalf("post-snapshot records = %q", recs)
	}
}

func TestTornTailTruncatedToLastValid(t *testing.T) {
	dir := t.TempDir()
	st, _, _ := reopen(t, dir, Options{Sync: SyncAlways})
	for i := 0; i < 5; i++ {
		if err := st.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the final record: drop its last 2 bytes.
	path := filepath.Join(dir, "wal-00000000.log")
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-2); err != nil {
		t.Fatal(err)
	}

	st2, _, recs := reopen(t, dir, Options{Sync: SyncAlways})
	if len(recs) != 4 {
		t.Fatalf("recovered %d records after torn tail, want 4", len(recs))
	}
	// The torn bytes must be gone from disk so appends resume cleanly.
	if err := st2.Append([]byte("rec-4b")); err != nil {
		t.Fatal(err)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	st3, _, recs := reopen(t, dir, Options{Sync: SyncAlways})
	defer st3.Close()
	if len(recs) != 5 || string(recs[4]) != "rec-4b" {
		t.Fatalf("after re-append: %q", recs)
	}
}

func TestCorruptMiddleRecordStopsReplay(t *testing.T) {
	dir := t.TempDir()
	st, _, _ := reopen(t, dir, Options{Sync: SyncAlways})
	for i := 0; i < 5; i++ {
		if err := st.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip one payload byte of record 2: replay must stop at the last valid
	// prefix (records 0 and 1) rather than deliver corrupt data.
	path := filepath.Join(dir, "wal-00000000.log")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recLen := frameHeader + len("rec-0")
	raw[2*recLen+frameHeader] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, _, recs := reopen(t, dir, Options{Sync: SyncAlways})
	defer st2.Close()
	if len(recs) != 2 {
		t.Fatalf("recovered %d records past corruption, want 2", len(recs))
	}
}

func TestCorruptSnapshotFallsBackToPrevious(t *testing.T) {
	dir := t.TempDir()
	st, _, _ := reopen(t, dir, Options{Sync: SyncAlways})
	if err := st.Append([]byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := st.Snapshot([]byte("good")); err != nil {
		t.Fatal(err)
	}
	if err := st.Append([]byte("b")); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Corrupt the snapshot payload; its checksum no longer matches, so
	// recovery must refuse it (no older generation remains -> no snapshot,
	// and only the current WAL replays).
	path := filepath.Join(dir, "snap-00000001.snap")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, snap, recs := reopen(t, dir, Options{Sync: SyncAlways})
	defer st2.Close()
	if snap != nil {
		t.Fatalf("corrupt snapshot was accepted: %q", snap)
	}
	if len(recs) != 1 || string(recs[0]) != "b" {
		t.Fatalf("records = %q", recs)
	}
}

func TestInterruptedSnapshotGenerationsChain(t *testing.T) {
	// Simulate a crash after the new snapshot + wal were created but before
	// the old generation was deleted: both generations on disk. Recovery
	// must load the new snapshot and replay only the new WAL... and a crash
	// even earlier (snapshot renamed, no new wal yet) must also work.
	dir := t.TempDir()
	st, _, _ := reopen(t, dir, Options{Sync: SyncAlways})
	if err := st.Append([]byte("old-1")); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Hand-write snap-1 as if Snapshot died right after the rename.
	if err := writeSnapshotFile(filepath.Join(dir, "snap-00000001.snap"), []byte("cut")); err != nil {
		t.Fatal(err)
	}

	st2, snap, recs := reopen(t, dir, Options{Sync: SyncAlways})
	if string(snap) != "cut" {
		t.Fatalf("snapshot = %q", snap)
	}
	if len(recs) != 0 {
		t.Fatalf("records = %q, want none (wal generation 0 predates the snapshot)", recs)
	}
	if err := st2.Append([]byte("new-1")); err != nil {
		t.Fatal(err)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	st3, snap, recs := reopen(t, dir, Options{Sync: SyncAlways})
	defer st3.Close()
	if string(snap) != "cut" || len(recs) != 1 || string(recs[0]) != "new-1" {
		t.Fatalf("snap=%q recs=%q", snap, recs)
	}
}

func TestConcurrentAppendsGroupCommit(t *testing.T) {
	dir := t.TempDir()
	st, _, _ := reopen(t, dir, Options{Sync: SyncAlways})
	const workers, per = 16, 50
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := st.Append([]byte(fmt.Sprintf("w%02d-%03d", w, i))); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent append: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, _, recs := reopen(t, dir, Options{Sync: SyncAlways})
	defer st2.Close()
	if len(recs) != workers*per {
		t.Fatalf("recovered %d records, want %d", len(recs), workers*per)
	}
}

func TestAppendBeforeRecoverRejected(t *testing.T) {
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append([]byte("x")); err != ErrNotRecovered {
		t.Fatalf("err = %v, want ErrNotRecovered", err)
	}
}

// TestFailedLogRefusesEverything: the first sync error poisons the store with
// an ErrFailed, which every later append, barrier and snapshot returns; a
// closed store answers ErrClosed the same way.
func TestFailedLogRefusesEverything(t *testing.T) {
	st, _, _ := reopen(t, t.TempDir(), Options{Sync: SyncAlways})
	if err := st.Barrier()(); err != nil {
		t.Fatalf("barrier over nothing staged: %v", err)
	}
	st.f.Close() // the next fsync fails
	if err := st.Append([]byte("lost")); !errors.Is(err, ErrFailed) {
		t.Fatalf("append whose fsync failed: %v, want ErrFailed", err)
	}
	for what, err := range map[string]error{
		"append":   st.Append([]byte("after")),
		"barrier":  st.Barrier()(),
		"snapshot": st.Snapshot([]byte("state")),
	} {
		if !errors.Is(err, ErrFailed) {
			t.Errorf("%s on a failed log: %v, want ErrFailed", what, err)
		}
	}
	st.Close()
	if err := st.Barrier()(); !errors.Is(err, ErrClosed) {
		t.Errorf("barrier on a closed log: %v, want ErrClosed", err)
	}
}

func TestRecoverIdempotentAcrossReopen(t *testing.T) {
	// Recovering twice from the same directory must yield identical record
	// streams — the determinism contract crash-recovery relies on.
	dir := t.TempDir()
	st, _, _ := reopen(t, dir, Options{Sync: SyncNone})
	for i := 0; i < 20; i++ {
		if err := st.Append([]byte(fmt.Sprintf("r%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st1, _, recs1 := reopen(t, dir, Options{Sync: SyncNone})
	st1.Close()
	st2, _, recs2 := reopen(t, dir, Options{Sync: SyncNone})
	st2.Close()
	if len(recs1) != len(recs2) {
		t.Fatalf("replays differ: %d vs %d", len(recs1), len(recs2))
	}
	for i := range recs1 {
		if !bytes.Equal(recs1[i], recs2[i]) {
			t.Fatalf("record %d differs", i)
		}
	}
}

// buildFrame builds one valid WAL frame for corpus construction.
func buildFrame(payload []byte) []byte {
	var header [frameHeader]byte
	binary.LittleEndian.PutUint32(header[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(header[4:8], crc32.Checksum(payload, crcTable))
	return append(header[:], payload...)
}
