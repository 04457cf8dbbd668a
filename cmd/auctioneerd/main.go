// Command auctioneerd runs one host's market daemon: the continuous
// proportional-share auction with its price-statistics windows, reallocating
// every interval (the paper's 10 seconds) and optionally registering with a
// Service Location Service.
//
// Usage:
//
//	auctioneerd -addr :7710 -host h1 -capacity 5600 \
//	    -interval 10s -sls http://localhost:7701 -site hplabs
package main

import (
	"flag"
	"log/slog"
	"os"
	"strings"
	"time"

	"tycoongrid/internal/auction"
	"tycoongrid/internal/httpapi"
	"tycoongrid/internal/mechanism"
	"tycoongrid/internal/sls"
	"tycoongrid/internal/telemetry"
	"tycoongrid/internal/tracing"
)

func main() {
	addr := flag.String("addr", ":7710", "listen address")
	host := flag.String("host", "h1", "host id")
	capacity := flag.Float64("capacity", 5600, "host CPU capacity in MHz")
	cpus := flag.Int("cpus", 2, "physical CPUs (advertised to the SLS)")
	maxVMs := flag.Int("maxvms", 30, "virtual machine limit (advertised)")
	interval := flag.Duration("interval", auction.DefaultInterval, "reallocation interval")
	reserve := flag.Float64("reserve", 1.0/3600, "reserve price, credits/second")
	mechName := flag.String("mechanism", mechanism.Proportional,
		"clearing rule: "+strings.Join(mechanism.Names(), "|"))
	slsURL := flag.String("sls", "", "SLS base URL to register with (optional)")
	site := flag.String("site", "", "owning site label")
	endpoint := flag.String("endpoint", "", "advertised endpoint (default http://<addr>)")
	traceRatio := flag.Float64("trace", 1, "fraction of root traces recorded, 0..1")
	pprofOn := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
	dataDir := flag.String("data-dir", "",
		"directory for the durable price log (WAL + snapshots); empty = in-memory")
	fsyncMode := flag.String("fsync", "interval",
		"WAL fsync policy with -data-dir: always|interval|none")
	snapshotEvery := flag.Int("snapshot-every", 0,
		"price records between snapshots with -data-dir (0 = one week of ticks)")
	scrapeEvery := flag.Duration("scrape-interval", telemetry.DefaultScrapeInterval,
		"self-scrape cadence feeding /metrics/history and the SLO evaluator")
	flag.Parse()
	tracing.InitSlog("auctioneerd", os.Stderr, slog.LevelInfo)
	tracing.Default().SetSampleRatio(*traceRatio)

	mech, err := mechanism.New(*mechName, mechanism.Config{})
	if err != nil {
		slog.Error("auctioneerd: bad -mechanism", "err", err)
		os.Exit(1)
	}
	market, err := auction.NewMarket(auction.Config{
		HostID:       *host,
		CapacityMHz:  *capacity,
		ReservePrice: *reserve,
		Start:        time.Now(),
		Mechanism:    mech,
	})
	if err != nil {
		slog.Error("auctioneerd: market construction failed", "err", err)
		os.Exit(1)
	}
	slog.Info("auctioneerd: market", "host", *host, "mechanism", market.MechanismName())

	// With -data-dir, the price history is recovered and journaled.
	svc, prices, err := newService(market, *interval, *dataDir, *fsyncMode, *snapshotEvery)
	if err != nil {
		slog.Error("auctioneerd: service construction failed", "err", err)
		os.Exit(1)
	}

	// Readiness: with an SLS configured, not ready until the directory has
	// acknowledged us once; standalone markets are ready immediately.
	var health *httpapi.Health
	if *slsURL != "" {
		health = httpapi.NewHealth("auctioneerd", "sls")
	} else {
		health = httpapi.NewHealth("auctioneerd")
	}

	// Reallocation loop.
	go func() {
		for now := range time.Tick(*interval) {
			charges, refunds := market.Tick(now)
			auction.CountClears(1)
			if len(charges)+len(refunds) > 0 {
				slog.Info("auctioneerd: tick", "price", market.SpotPrice(),
					"charges", len(charges), "refunds", len(refunds))
			}
		}
	}()

	// SLS registration and heartbeats.
	if *slsURL != "" {
		ep := *endpoint
		if ep == "" {
			ep = "http://localhost" + *addr
		}
		client := httpapi.NewSLSClient(*slsURL, nil)
		info := sls.HostInfo{
			ID: *host, Endpoint: ep, CapacityMHz: *capacity,
			CPUs: *cpus, MaxVMs: *maxVMs, Site: *site,
		}
		if err := client.Register(info); err != nil {
			slog.Warn("auctioneerd: SLS registration failed", "err", err)
		} else {
			health.MarkReady("sls")
		}
		go func() {
			for range time.Tick(*interval * 3) {
				if err := client.Heartbeat(*host, market.SpotPrice()); err != nil {
					slog.Warn("auctioneerd: heartbeat failed", "err", err)
					if client.Register(info) == nil { // SLS may have restarted
						health.MarkReady("sls")
					}
				} else {
					health.MarkReady("sls")
				}
			}
		}()
	}

	slog.Info("auctioneerd: listening", "host", *host, "capacity_mhz", *capacity, "addr", *addr)
	if err := telemetry.Serve(telemetry.Daemon{
		Service: "auctioneerd", Addr: *addr, App: svc, Health: health,
		ScrapeEvery: *scrapeEvery, Pprof: *pprofOn,
		OnDrain: func() {
			if prices != nil {
				if err := prices.close(); err != nil {
					slog.Error("auctioneerd: price log close failed", "err", err)
				}
			}
		},
	}); err != nil {
		slog.Error("auctioneerd: serve failed", "err", err)
		os.Exit(1)
	}
	slog.Info("auctioneerd: shut down cleanly")
}
