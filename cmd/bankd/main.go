// Command bankd runs the Tycoon Bank as an HTTP daemon: accounts bound to
// Ed25519 keys, owner-signed transfers, bank-signed receipts, and an audit
// ledger. See README.md for the API surface.
//
// Usage:
//
//	bankd -addr :7700 -dn "/O=Grid/CN=Bank" [-keyseed secret]
//	bankd -addr :7700 -data-dir /var/lib/bankd -fsync always
//
// With -keyseed the bank's signing key is derived deterministically (useful
// for reproducible testbeds); otherwise a fresh random key is generated and
// its public half printed at startup.
//
// With -data-dir the ledger is durable: every mutation is journaled to a
// write-ahead log under that directory before it is acknowledged, snapshots
// bound the log, and a restart recovers the exact acknowledged state. The
// bank's signing key is persisted alongside (identity.seed) so receipts
// issued before a crash still verify after it. Without -data-dir the bank is
// purely in-memory, exactly as before. While recovery runs, /healthz/ready
// and every API route answer 503. If the log fails (durable.ErrFailed) the
// daemon stops: every request answers 503, readiness drops, and the process
// exits 1 so that a supervisor restarts it from the log.
package main

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"time"

	"tycoongrid/internal/bank"
	"tycoongrid/internal/durable"
	"tycoongrid/internal/fault/failpoint"
	"tycoongrid/internal/httpapi"
	"tycoongrid/internal/pki"
	"tycoongrid/internal/sim"
	"tycoongrid/internal/telemetry"
	"tycoongrid/internal/tracing"
)

func main() {
	addr := flag.String("addr", ":7700", "listen address")
	dn := flag.String("dn", "/O=Grid/CN=Bank", "bank distinguished name")
	keyseed := flag.String("keyseed", "", "optional deterministic key seed")
	traceRatio := flag.Float64("trace", 1, "fraction of root traces recorded, 0..1")
	pprofOn := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
	dataDir := flag.String("data-dir", "",
		"directory for the durable ledger (WAL + snapshots); empty = in-memory")
	fsyncMode := flag.String("fsync", "interval",
		"WAL fsync policy with -data-dir: always|interval|none")
	fsyncEvery := flag.Duration("fsync-interval", durable.DefaultInterval,
		"flush period for -fsync interval")
	snapshotEvery := flag.Int("snapshot-every", bank.DefaultSnapshotEvery,
		"records between snapshots with -data-dir")
	scrapeEvery := flag.Duration("scrape-interval", telemetry.DefaultScrapeInterval,
		"self-scrape cadence feeding /metrics/history and the SLO evaluator")
	flag.Parse()
	tracing.InitSlog("bankd", os.Stderr, slog.LevelInfo)
	tracing.Default().SetSampleRatio(*traceRatio)
	if n, err := failpoint.ArmFromEnv(); err != nil {
		slog.Error("bankd: bad failpoint spec", "err", err)
		os.Exit(1)
	} else if n > 0 {
		slog.Warn("bankd: crash failpoints armed", "count", n)
	}

	seed := *keyseed
	if *dataDir != "" {
		var err error
		if seed, err = persistentKeySeed(*dataDir, seed); err != nil {
			slog.Error("bankd: key seed setup failed", "err", err)
			os.Exit(1)
		}
	}
	ca, id, err := identityFor(*dn, seed)
	if err != nil {
		slog.Error("bankd: identity setup failed", "err", err)
		os.Exit(1)
	}
	_ = ca
	b := bank.New(id, sim.WallClock{})
	svc := httpapi.NewBankService(b)

	var health *httpapi.Health
	var store *durable.Store
	if *dataDir == "" {
		// No upstream dependencies and nothing to recover: ready at bind.
		health = httpapi.NewHealth("bankd")
	} else {
		health = httpapi.NewHealth("bankd", "wal")
		svc.OnLogFailure = func(err error) {
			if !errors.Is(err, durable.ErrFailed) {
				return // closed by the drain: the process is on its way out
			}
			health.StartDrain() // readiness off for good
			slog.Error("bankd: write-ahead log failed; exiting so a restart recovers from it", "err", err)
			os.Exit(1)
		}
		policy, err := durable.ParseSyncPolicy(*fsyncMode)
		if err != nil {
			slog.Error("bankd: bad -fsync", "err", err)
			os.Exit(1)
		}
		store, err = durable.Open(*dataDir, durable.Options{Sync: policy, Interval: *fsyncEvery})
		if err != nil {
			slog.Error("bankd: open data dir", "err", err)
			os.Exit(1)
		}
		// Recover concurrently with binding the listener: until replay
		// finishes, the readiness probe and every API route answer 503, so
		// clients see "starting" instead of connection-refused during long
		// recoveries.
		go func() {
			start := time.Now()
			stats, err := b.AttachDurability(store, *snapshotEvery)
			if err != nil {
				slog.Error("bankd: recovery failed", "err", err)
				os.Exit(1)
			}
			health.MarkReady("wal")
			slog.Info("bankd: recovered",
				"records", stats.Records,
				"snapshot_bytes", stats.SnapshotBytes,
				"truncated_bytes", stats.TruncatedBytes,
				"took", time.Since(start),
				"fsync", policy.String())
		}()
	}

	slog.Info("bankd: listening", "addr", *addr,
		"receipt_key", httpapi.EncodeKey(b.PublicKey()))
	// The conservation probe recomputes the drift gauge each scrape tick.
	err = telemetry.Serve(telemetry.Daemon{
		Service: "bankd", Addr: *addr, App: health.GateUntilReady(svc), Health: health,
		Probes: []func(){b.RecordConservation}, ScrapeEvery: *scrapeEvery, Pprof: *pprofOn,
		OnDrain: func() {
			if store != nil {
				if cerr := store.Close(); cerr != nil {
					slog.Error("bankd: wal close failed", "err", cerr)
				}
			}
		},
	})
	if err != nil {
		slog.Error("bankd: serve failed", "err", err)
		os.Exit(1)
	}
	slog.Info("bankd: shut down cleanly")
}

// persistentKeySeed makes the bank's signing identity survive restarts: the
// seed is stored in dataDir/identity.seed on first boot and read back on
// every later one, so receipts issued before a crash verify after it. An
// explicit -keyseed wins (and is persisted for consistency checking).
func persistentKeySeed(dataDir, explicit string) (string, error) {
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dataDir, "identity.seed")
	existing, err := os.ReadFile(path)
	switch {
	case err == nil:
		stored := string(existing)
		if explicit != "" && explicit != stored {
			return "", fmt.Errorf("-keyseed differs from %s; refusing to switch signing keys over durable state", path)
		}
		return stored, nil
	case os.IsNotExist(err):
		seed := explicit
		if seed == "" {
			var raw [32]byte
			if _, err := rand.Read(raw[:]); err != nil {
				return "", err
			}
			seed = hex.EncodeToString(raw[:])
		}
		if err := os.WriteFile(path, []byte(seed), 0o600); err != nil {
			return "", err
		}
		return seed, nil
	default:
		return "", err
	}
}

// identityFor builds a self-contained identity for a standalone daemon: a
// one-off CA issues the daemon's certificate (daemons trust each other via
// exchanged public keys, not the throwaway CA).
func identityFor(dn, keyseed string) (*pki.CA, *pki.Identity, error) {
	if keyseed != "" {
		seed := sha256.Sum256([]byte(keyseed))
		ca, err := pki.NewDeterministicCA(pki.DN(dn), seed)
		if err != nil {
			return nil, nil, err
		}
		caSeed := sha256.Sum256([]byte(keyseed + "/service"))
		id, err := ca.IssueDeterministic(pki.DN(dn), caSeed)
		return ca, id, err
	}
	ca, err := pki.NewCA(pki.DN(dn))
	if err != nil {
		return nil, nil, err
	}
	id, err := ca.Issue(pki.DN(dn))
	return ca, id, err
}
