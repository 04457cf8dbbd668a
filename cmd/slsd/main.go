// Command slsd runs the Service Location Service daemon: the directory of
// live auctioneers. Auctioneers register and heartbeat here; scheduling
// agents query it for candidate hosts.
//
// With -peers, slsd additionally hosts the fleet telemetry aggregator — the
// natural home, since the SLS already plays the "who is alive" index role:
// it copies each peer's own series from its /metrics/history on the scrape
// interval and serves fleet-wide rollups at /fleet and /fleet/history.
//
// Usage:
//
//	slsd -addr :7701 -ttl 60s
//	slsd -addr :7701 -peers bankd=http://localhost:7700,h1=http://localhost:7710
package main

import (
	"flag"
	"log/slog"
	"os"
	"time"

	"tycoongrid/internal/httpapi"
	"tycoongrid/internal/sim"
	"tycoongrid/internal/sls"
	"tycoongrid/internal/telemetry"
	"tycoongrid/internal/tracing"
)

func main() {
	addr := flag.String("addr", ":7701", "listen address")
	ttl := flag.Duration("ttl", 60*time.Second, "host liveness TTL")
	prune := flag.Duration("prune", 5*time.Minute, "expired-entry sweep interval")
	traceRatio := flag.Float64("trace", 1, "fraction of root traces recorded, 0..1")
	pprofOn := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
	peers := flag.String("peers", "",
		"comma-separated name=url scrape targets; non-empty hosts the fleet aggregator at /fleet")
	scrapeEvery := flag.Duration("scrape-interval", telemetry.DefaultScrapeInterval,
		"self-scrape and fleet-scrape cadence")
	flag.Parse()
	tracing.InitSlog("slsd", os.Stderr, slog.LevelInfo)
	tracing.Default().SetSampleRatio(*traceRatio)

	reg := sls.New(sim.WallClock{}, sls.WithTTL(*ttl))
	go func() {
		for range time.Tick(*prune) {
			if n := reg.Prune(); n > 0 {
				slog.Info("slsd: pruned expired hosts", "count", n)
			}
		}
	}()

	var fleet []httpapi.MuxOption
	stopFleet := make(chan struct{})
	if *peers != "" {
		peerList, err := telemetry.ParsePeers(*peers)
		if err != nil {
			slog.Error("slsd: bad -peers", "err", err)
			os.Exit(1)
		}
		agg := telemetry.NewAggregator(telemetry.AggregatorConfig{Peers: peerList})
		go agg.Run(stopFleet, *scrapeEvery)
		fleet = agg.MuxOptions()
		slog.Info("slsd: hosting fleet aggregator", "peers", len(peerList))
	}

	slog.Info("slsd: listening", "addr", *addr, "ttl", ttl.String())
	// The directory is ready as soon as it binds.
	if err := telemetry.Serve(telemetry.Daemon{
		Service: "slsd", Addr: *addr, App: httpapi.NewSLSService(reg), Health: httpapi.NewHealth("slsd"),
		ScrapeEvery: *scrapeEvery, Pprof: *pprofOn, MuxOptions: fleet,
		OnDrain: func() { close(stopFleet) },
	}); err != nil {
		slog.Error("slsd: serve failed", "err", err)
		os.Exit(1)
	}
	slog.Info("slsd: shut down cleanly")
}
