package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"time"

	"tycoongrid/internal/fault/failpoint"
)

// Snapshot durably records state as the new recovery base and truncates the
// log: outstanding records are flushed and fsynced, the snapshot is written
// via temp-file + fsync + atomic rename, a fresh empty WAL generation is
// opened, and only then is the previous generation deleted. A crash at any
// point leaves a directory Recover handles (see the package comment).
//
// The caller must serialize Snapshot against Append — the bank invokes both
// under its own lock — so that state is a consistent cut of the record
// stream: every record staged before the call is covered by state, and
// every record staged after lands in the new generation.
func (s *Store) Snapshot(state []byte) error {
	start := time.Now()

	// Exclude in-flight leader fsyncs, then make the current log durable up
	// to its end: the snapshot claims to cover those records, so they must
	// not outlive it only in a user-space buffer.
	s.mu.Lock()
	for s.syncing && s.firstErr == nil && !s.closed {
		s.cond.Wait()
	}
	if err := s.usableLocked(); err != nil {
		s.mu.Unlock()
		return err
	}
	s.syncing = true // blocks leader fsyncs and the interval flusher
	batch := s.staged
	err := s.w.Flush()
	oldF, oldGen := s.f, s.gen
	s.mu.Unlock()

	finish := func(err error) error {
		s.mu.Lock()
		s.syncing = false
		if err != nil {
			err = s.poison(err)
		}
		s.cond.Broadcast()
		s.mu.Unlock()
		return err
	}

	if err == nil {
		err = oldF.Sync()
	}
	if err != nil {
		return finish(fmt.Errorf("durable: snapshot flush: %w", err))
	}

	// Write snap-(g+1): temp file, fsync, atomic rename, fsync dir.
	newGen := oldGen + 1
	tmp := s.snapPath(newGen) + ".tmp"
	if err := writeSnapshotFile(tmp, state); err != nil {
		return finish(err)
	}
	failpoint.Maybe("durable.snapshot.tmp")
	if err := os.Rename(tmp, s.snapPath(newGen)); err != nil {
		return finish(fmt.Errorf("durable: %w", err))
	}
	if err := syncDir(s.dir); err != nil {
		return finish(err)
	}
	failpoint.Maybe("durable.snapshot.written")

	// Open the new generation's empty log and swap it in.
	newF, err := os.OpenFile(s.walPath(newGen), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return finish(fmt.Errorf("durable: %w", err))
	}
	if err := syncDir(s.dir); err != nil {
		newF.Close()
		return finish(err)
	}

	s.mu.Lock()
	s.f = newF
	s.w.Reset(newF)
	s.gen = newGen
	if batch > s.synced {
		s.synced = batch // everything up to the rotation point is durable
	}
	s.mu.Unlock()
	_ = oldF.Close()

	// The old generation is now redundant; its deletion is pure cleanup and
	// recovery tolerates it being interrupted.
	failpoint.Maybe("durable.snapshot.rotate")
	_ = os.Remove(s.walPath(oldGen))
	_ = os.Remove(s.snapPath(oldGen))
	// A recovery that chained multiple generations leaves older files too.
	if gens, wals, err := s.scan(); err == nil {
		for _, g := range gens {
			if g < newGen {
				_ = os.Remove(s.snapPath(g))
			}
		}
		for _, g := range wals {
			if g < newGen {
				_ = os.Remove(s.walPath(g))
			}
		}
	}

	mSnapshots.Inc()
	mSnapshotSeconds.Observe(time.Since(start).Seconds())
	return finish(nil)
}

// writeSnapshotFile writes magic + framed payload to path and fsyncs it.
func writeSnapshotFile(path string, payload []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	var header [frameHeader]byte
	binary.LittleEndian.PutUint32(header[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(header[4:8], crc32.Checksum(payload, crcTable))
	_, err = f.Write([]byte(snapMagic))
	if err == nil {
		_, err = f.Write(header[:])
	}
	if err == nil {
		_, err = f.Write(payload)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = os.Remove(path)
		return fmt.Errorf("durable: writing snapshot: %w", err)
	}
	return nil
}

// syncDir fsyncs a directory so renames and creates within it are durable.
func syncDir(dir string) error {
	d, err := os.Open(filepath.Clean(dir))
	if err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("durable: fsync dir: %w", err)
	}
	return nil
}
