// Package durable is the crash-safe persistence layer under bankd and its
// siblings: a length-prefixed, CRC32C-checksummed write-ahead log with
// group-commit batching and a configurable fsync policy, plus periodic
// snapshots with log truncation. It stores opaque byte records — the bank
// (internal/bank), the token spent-store (internal/token) and the
// auctioneer's price log each define their own record encoding on top.
//
// # On-disk layout
//
// A store owns one directory holding numbered generations:
//
//	wal-00000003.log    records appended since snapshot 3
//	snap-00000003.snap  state as of the moment wal-00000003.log was created
//
// Snapshot(state) writes snap-(g+1) via write-to-temp + fsync + atomic
// rename, opens an empty wal-(g+1), then deletes generation g. A crash at
// any point between those steps leaves a directory that Open still recovers:
// the latest valid snapshot is loaded and every WAL generation at or above
// it replays in order.
//
// # Record framing and torn tails
//
// Each record is [len uint32][crc32c uint32][payload], little-endian, CRC
// over the payload (Castagnoli polynomial). Recovery scans until the first
// frame that is short, oversized, or fails its checksum, truncates the file
// back to the last valid frame, and resumes appending there — the
// truncate-to-last-valid contract a torn final write requires. Only records
// the policy had made durable are guaranteed to survive, and recovered
// state is always some prefix of acknowledged operations, never a mix.
//
// # Sync policies
//
//   - SyncAlways: Append returns only after the record is fsynced. Waiters
//     batch behind a single leader fsync (group commit), so N concurrent
//     appends cost ~1 fsync, not N.
//   - SyncInterval: appends return once buffered; a background flusher
//     fsyncs every Interval. Bounded loss window, near-memory throughput.
//   - SyncNone: appends are flushed to the OS but never fsynced; a process
//     kill loses at most the user-space buffer, a machine crash anything
//     the kernel had not written back.
package durable

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"tycoongrid/internal/fault/failpoint"
)

// SyncPolicy selects when appended records are fsynced.
type SyncPolicy int

// The three fsync policies.
const (
	SyncAlways SyncPolicy = iota
	SyncInterval
	SyncNone
)

// String renders the policy as its flag spelling.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	default:
		return "none"
	}
}

// ParseSyncPolicy parses the -fsync flag values "always", "interval", "none".
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "none":
		return SyncNone, nil
	}
	return 0, fmt.Errorf("durable: unknown fsync policy %q (want always|interval|none)", s)
}

// DefaultInterval is the flush period of SyncInterval when Options.Interval
// is zero.
const DefaultInterval = 100 * time.Millisecond

// MaxRecord bounds a single record frame; larger lengths in a header are
// treated as corruption.
const MaxRecord = 16 << 20

// Options configures a Store.
type Options struct {
	Sync     SyncPolicy
	Interval time.Duration // SyncInterval flush period; 0 = DefaultInterval
}

// Errors returned by the store.
var (
	ErrClosed       = errors.New("durable: store is closed")
	ErrNotRecovered = errors.New("durable: Recover must run before Append")
	// ErrFailed wraps the store's first unrecoverable write, sync or
	// snapshot error. The store then refuses every later record: its log may
	// lack what it was asked to keep, so nothing built on it is durable.
	ErrFailed = errors.New("durable: log failed")
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

const (
	frameHeader = 8 // uint32 length + uint32 crc32c
	snapMagic   = "TGSNAP01"
)

// Store is a write-ahead log plus snapshots in one directory. Append and the
// read-only accessors are safe for concurrent use; Snapshot must be
// serialized with Append by the caller (the bank calls both under its own
// lock), which is what makes a snapshot a consistent cut of the record
// stream.
type Store struct {
	dir  string
	opts Options

	mu        sync.Mutex
	cond      *sync.Cond
	f         *os.File
	w         *bufio.Writer
	gen       uint64
	staged    uint64 // records written into w since open
	synced    uint64 // records known durable
	syncing   bool   // a leader fsync or snapshot rotation is in flight
	firstErr  error  // first unrecoverable write/sync error; poisons the store
	recovered bool
	closed    bool

	stopFlush chan struct{}
	flushDone chan struct{}
}

// RecoverStats reports what Recover found.
type RecoverStats struct {
	SnapshotBytes  int   // size of the snapshot payload restored (0 = none)
	Records        int   // WAL records replayed
	TruncatedBytes int64 // torn/corrupt tail bytes discarded
}

// Open prepares the store rooted at dir, creating it if needed. No data is
// read yet: call Recover next, then Append/Snapshot.
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	if opts.Interval <= 0 {
		opts.Interval = DefaultInterval
	}
	s := &Store{dir: dir, opts: opts}
	s.cond = sync.NewCond(&s.mu)
	return s, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Sync returns the store's fsync policy.
func (s *Store) Sync() SyncPolicy { return s.opts.Sync }

// Recover loads the latest valid snapshot (calling snapshot with its
// payload, if one exists) and replays every WAL record written after it
// through record, in append order. It then truncates any torn tail and opens
// the log for appending. It must be called exactly once, before Append or
// Snapshot, even on an empty directory.
func (s *Store) Recover(snapshot func(payload []byte) error, record func(payload []byte) error) (RecoverStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var stats RecoverStats
	if s.closed {
		return stats, ErrClosed
	}
	if s.recovered {
		return stats, errors.New("durable: Recover called twice")
	}

	snapGens, walGens, err := s.scan()
	if err != nil {
		return stats, err
	}

	// Latest valid snapshot wins; invalid ones (disk corruption — the
	// write-temp-rename protocol never leaves a torn rename in place) fall
	// back to the previous generation, whose WAL chain still replays to the
	// same state.
	base := uint64(0)
	var snapPayload []byte
	for i := len(snapGens) - 1; i >= 0; i-- {
		payload, err := readSnapshotFile(s.snapPath(snapGens[i]))
		if err == nil {
			base = snapGens[i]
			snapPayload = payload
			break
		}
	}
	if snapPayload != nil && snapshot != nil {
		if err := snapshot(snapPayload); err != nil {
			return stats, fmt.Errorf("durable: restoring snapshot %d: %w", base, err)
		}
		stats.SnapshotBytes = len(snapPayload)
	}

	// Replay every WAL generation at or above the base, in order. Normally
	// that is exactly one file; after a crash mid-snapshot there may be two
	// (the pre-rotation log plus the fresh one), and state(snap g) ==
	// state(snap g-1) + wal g-1 makes chaining them equivalent.
	var replay []uint64
	for _, g := range walGens {
		if g >= base {
			replay = append(replay, g)
		}
	}
	for i, g := range replay {
		last := i == len(replay)-1
		n, truncated, err := s.replayFile(s.walPath(g), last, record)
		if err != nil {
			return stats, err
		}
		stats.Records += n
		stats.TruncatedBytes += truncated
	}
	mRecoveredRecords.Add(uint64(stats.Records))
	if stats.TruncatedBytes > 0 {
		mTruncatedBytes.Add(uint64(stats.TruncatedBytes))
	}

	// Open (or create) the active segment for appending.
	s.gen = base
	if len(replay) > 0 {
		s.gen = replay[len(replay)-1]
	}
	f, err := os.OpenFile(s.walPath(s.gen), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return stats, fmt.Errorf("durable: %w", err)
	}
	s.f = f
	s.w = bufio.NewWriterSize(f, 1<<16)
	s.recovered = true

	if s.opts.Sync == SyncInterval {
		s.stopFlush = make(chan struct{})
		s.flushDone = make(chan struct{})
		go s.flushLoop()
	}
	return stats, nil
}

// scan lists snapshot and WAL generations present in dir, ascending, and
// removes leftover temp files from an interrupted snapshot.
func (s *Store) scan() (snapGens, walGens []uint64, err error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, nil, fmt.Errorf("durable: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasSuffix(name, ".tmp"):
			_ = os.Remove(filepath.Join(s.dir, name))
		case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log"):
			var g uint64
			if _, err := fmt.Sscanf(name, "wal-%08d.log", &g); err == nil {
				walGens = append(walGens, g)
			}
		case strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".snap"):
			var g uint64
			if _, err := fmt.Sscanf(name, "snap-%08d.snap", &g); err == nil {
				snapGens = append(snapGens, g)
			}
		}
	}
	sort.Slice(snapGens, func(i, j int) bool { return snapGens[i] < snapGens[j] })
	sort.Slice(walGens, func(i, j int) bool { return walGens[i] < walGens[j] })
	return snapGens, walGens, nil
}

func (s *Store) walPath(gen uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("wal-%08d.log", gen))
}

func (s *Store) snapPath(gen uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("snap-%08d.snap", gen))
}

// replayFile scans one WAL file, invoking record per valid frame. When
// truncate is set (the final, active segment) a torn or corrupt tail is cut
// back to the last valid frame so appends resume on a clean boundary.
func (s *Store) replayFile(path string, truncate bool, record func([]byte) error) (n int, truncated int64, err error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, 0, nil
	}
	if err != nil {
		return 0, 0, fmt.Errorf("durable: %w", err)
	}
	defer f.Close()

	r := bufio.NewReaderSize(f, 1<<16)
	var valid int64
	var header [frameHeader]byte
	for {
		if _, err := io.ReadFull(r, header[:]); err != nil {
			break // clean EOF or torn header — either way the tail ends here
		}
		length := binary.LittleEndian.Uint32(header[0:4])
		sum := binary.LittleEndian.Uint32(header[4:8])
		if length == 0 || length > MaxRecord {
			break // corrupt length — everything after is unreadable
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(r, payload); err != nil {
			break // torn payload
		}
		if crc32.Checksum(payload, crcTable) != sum {
			break // bit rot or interleaved torn write
		}
		if record != nil {
			if err := record(payload); err != nil {
				return n, truncated, fmt.Errorf("durable: replaying %s record %d: %w", filepath.Base(path), n, err)
			}
		}
		n++
		valid += frameHeader + int64(length)
	}

	info, err := f.Stat()
	if err != nil {
		return n, 0, fmt.Errorf("durable: %w", err)
	}
	truncated = info.Size() - valid
	if truncated > 0 && truncate {
		if err := os.Truncate(path, valid); err != nil {
			return n, truncated, fmt.Errorf("durable: truncating torn tail: %w", err)
		}
	}
	return n, truncated, nil
}

// readSnapshotFile loads and validates one snapshot file.
func readSnapshotFile(path string) ([]byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(raw) < len(snapMagic)+frameHeader || string(raw[:len(snapMagic)]) != snapMagic {
		return nil, errors.New("durable: bad snapshot header")
	}
	body := raw[len(snapMagic):]
	length := binary.LittleEndian.Uint32(body[0:4])
	sum := binary.LittleEndian.Uint32(body[4:8])
	payload := body[frameHeader:]
	if uint32(len(payload)) != length {
		return nil, errors.New("durable: snapshot length mismatch")
	}
	if crc32.Checksum(payload, crcTable) != sum {
		return nil, errors.New("durable: snapshot checksum mismatch")
	}
	return payload, nil
}

// Append stages one record and blocks until it is durable per the sync
// policy. Equivalent to AppendAsync(p)().
func (s *Store) Append(payload []byte) error {
	return s.AppendAsync(payload)()
}

// AppendAsync stages one record in log order and returns a wait function
// that blocks until the record is durable per the sync policy. Callers that
// hold a state lock stage under it — fixing the record's position relative
// to the state mutation — then release the lock before waiting, so one
// leader fsync commits every record staged behind it (group commit).
func (s *Store) AppendAsync(payload []byte) func() error {
	s.mu.Lock()
	if err := s.appendLocked(payload); err != nil {
		s.mu.Unlock()
		return func() error { return err }
	}
	my := s.staged
	s.mu.Unlock()
	failpoint.Maybe("durable.wal.append")
	return s.waitFor(my)
}

// Barrier returns the wait AppendAsync would have returned for a record
// staged now, without staging one: it blocks until every record staged so far
// is durable per the sync policy. A caller that answers from state an earlier,
// possibly still unsynced record created (an idempotent replay) waits on it
// exactly as the original writer does.
func (s *Store) Barrier() func() error {
	s.mu.Lock()
	err := s.usableLocked()
	my := s.staged
	s.mu.Unlock()
	if err != nil {
		return func() error { return err }
	}
	return s.waitFor(my)
}

// waitFor returns the wait for record number my per the sync policy.
func (s *Store) waitFor(my uint64) func() error {
	if s.opts.Sync == SyncAlways {
		return func() error { return s.syncUpTo(my) }
	}
	// SyncInterval acknowledges at once (the flush loop bounds the loss
	// window); SyncNone never fsyncs.
	return s.errNow
}

// usableLocked reports why the store cannot take records, or nil; callers
// hold s.mu.
func (s *Store) usableLocked() error {
	switch {
	case s.closed:
		return ErrClosed
	case !s.recovered:
		return ErrNotRecovered
	}
	return s.firstErr
}

// appendLocked frames payload into the write buffer; callers hold s.mu.
func (s *Store) appendLocked(payload []byte) error {
	if err := s.usableLocked(); err != nil {
		return err
	}
	if len(payload) == 0 || len(payload) > MaxRecord {
		return fmt.Errorf("durable: record size %d out of range", len(payload))
	}
	var header [frameHeader]byte
	binary.LittleEndian.PutUint32(header[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(header[4:8], crc32.Checksum(payload, crcTable))
	if _, err := s.w.Write(header[:]); err != nil {
		return s.poison(err)
	}
	if _, err := s.w.Write(payload); err != nil {
		return s.poison(err)
	}
	s.staged++
	mRecords.Inc()
	return nil
}

// poison records the first unrecoverable error, wrapped in ErrFailed, and
// returns err so wrapped; callers hold s.mu. A store that cannot write its log
// must stop acknowledging operations.
func (s *Store) poison(err error) error {
	err = fmt.Errorf("%w: %w", ErrFailed, err)
	if s.firstErr == nil {
		s.firstErr = err
	}
	s.cond.Broadcast()
	return err
}

func (s *Store) errNow() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.firstErr
}

// syncUpTo blocks until record number target is fsynced. The first waiter
// becomes the leader: it flushes and fsyncs everything staged so far,
// releasing every follower whose record made that batch.
func (s *Store) syncUpTo(target uint64) error {
	s.mu.Lock()
	for s.synced < target && s.firstErr == nil && !s.closed {
		if s.syncing {
			s.cond.Wait()
			continue
		}
		s.syncing = true
		batch := s.staged
		err := s.w.Flush()
		f := s.f
		s.mu.Unlock()

		if err == nil {
			failpoint.Maybe("durable.wal.sync")
			start := time.Now()
			err = f.Sync()
			mFsync.Observe(time.Since(start).Seconds())
		}

		s.mu.Lock()
		s.syncing = false
		if err != nil {
			s.poison(err)
		} else if batch > s.synced {
			s.synced = batch
		}
		s.cond.Broadcast()
	}
	err := s.firstErr
	if err == nil && s.closed && s.synced < target {
		err = ErrClosed
	}
	s.mu.Unlock()
	return err
}

// flushLoop is the SyncInterval background flusher.
func (s *Store) flushLoop() {
	defer close(s.flushDone)
	t := time.NewTicker(s.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-s.stopFlush:
			return
		case <-t.C:
			s.flushOnce()
		}
	}
}

// flushOnce flushes and fsyncs everything staged. Used by the interval loop
// and by Close; safe against concurrent snapshot rotation via the syncing
// flag.
func (s *Store) flushOnce() {
	s.mu.Lock()
	for s.syncing && s.firstErr == nil && !s.closed {
		s.cond.Wait()
	}
	if s.closed || s.firstErr != nil || s.staged == s.synced {
		s.mu.Unlock()
		return
	}
	s.syncing = true
	batch := s.staged
	err := s.w.Flush()
	f := s.f
	s.mu.Unlock()

	if err == nil {
		start := time.Now()
		err = f.Sync()
		mFsync.Observe(time.Since(start).Seconds())
	}

	s.mu.Lock()
	s.syncing = false
	if err != nil {
		s.poison(err)
	} else if batch > s.synced {
		s.synced = batch
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Close flushes and fsyncs outstanding records (whatever the policy — a
// graceful shutdown should never lose acknowledged state) and releases the
// file. Further operations return ErrClosed.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	if s.stopFlush != nil {
		close(s.stopFlush)
	}
	for s.syncing {
		s.cond.Wait()
	}
	var err error
	if s.recovered && s.firstErr == nil {
		if err = s.w.Flush(); err == nil {
			err = s.f.Sync()
		}
	}
	s.closed = true
	s.cond.Broadcast()
	f := s.f
	done := s.flushDone
	s.mu.Unlock()
	if done != nil {
		<-done
	}
	if f != nil {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
