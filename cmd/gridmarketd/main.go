// Command gridmarketd runs the complete grid market in one process — PKI,
// bank, a simulated Tycoon cluster, the best-response scheduling agent and
// the ARC-analog job manager — served over HTTP with the cluster advancing
// in real time. It is the quickest way to poke at the whole system with
// nothing but curl:
//
//	gridmarketd -addr :7750 -hosts 8 &
//
//	# create a funded demo user (demo keys live server-side; see
//	# examples/quickstart for the production local-key flow)
//	curl -X POST localhost:7750/demo/users -d '{"name":"alice","grant":"500"}'
//
//	# mint a transfer token for 50 credits
//	TOKEN=$(curl -sX POST localhost:7750/demo/tokens \
//	    -d '{"user":"alice","amount":"50"}' | sed 's/.*"token":"//;s/".*//')
//
//	# submit a 4-node proteome-scan style job
//	curl -X POST localhost:7750/jobs --data-binary \
//	  "&(executable=scan.sh)(jobname=demo)(count=4)(cputime=2)(walltime=30)(transfertoken=$TOKEN)"
//
//	# watch it run
//	curl localhost:7750/jobs
//	curl localhost:7750/monitor
//	curl localhost:7750/bank/accounts/alice
//
// gridmarketd keeps no state across restarts. Every start draws fresh CA and
// bank keys, so a token minted before a restart fails the bank-signature
// check after it, and users must be created again.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"os"
	"slices"
	"strings"
	"time"

	"tycoongrid/internal/bank"
	"tycoongrid/internal/box"
	"tycoongrid/internal/httpapi"
	"tycoongrid/internal/jobapi"
	"tycoongrid/internal/mechanism"
	"tycoongrid/internal/telemetry"
	"tycoongrid/internal/token"
	"tycoongrid/internal/tracing"
)

func main() {
	addr := flag.String("addr", ":7750", "listen address")
	hosts := flag.Int("hosts", 8, "simulated hosts")
	cpus := flag.Int("cpus", 2, "CPUs per host")
	mhz := flag.Float64("mhz", 2800, "MHz per CPU")
	interval := flag.Duration("interval", 10*time.Second, "market reallocation interval")
	speedup := flag.Float64("speedup", 60, "simulated seconds per wall second")
	traceRatio := flag.Float64("trace", 1, "fraction of root traces recorded, 0..1")
	pprofOn := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
	partitions := flag.Int("partitions", 1,
		"agent partitions under the meta-scheduler (1 = single agent; hosts must divide evenly)")
	strategyName := flag.String("strategy", "",
		"meta-scheduler matchmaking strategy: current-price|predicted-mean|predicted-quantile|portfolio")
	horizon := flag.Duration("horizon", 30*time.Minute, "forecast horizon for prediction strategies")
	mechName := flag.String("mechanism", mechanism.Proportional,
		"host market clearing rule: "+strings.Join(mechanism.Names(), "|"))
	scrapeEvery := flag.Duration("scrape-interval", telemetry.DefaultScrapeInterval,
		"self-scrape cadence feeding /metrics/history and the SLO evaluator")
	flag.Parse()
	tracing.InitSlog("gridmarketd", os.Stderr, slog.LevelInfo)
	// NaN fails every comparison, so test for the good case; the value is
	// logged as text because JSON has no NaN or Inf.
	if !(*speedup > 0) || math.IsInf(*speedup, 1) {
		slog.Error("gridmarketd: -speedup must be finite and positive", "speedup", fmt.Sprint(*speedup))
		os.Exit(1)
	}
	tracing.Default().SetSampleRatio(*traceRatio)

	cfg := box.DefaultConfig()
	cfg.Hosts = *hosts
	cfg.CPUsPerHost = *cpus
	cfg.CPUMHz = *mhz
	cfg.Interval = *interval
	cfg.Start = time.Now()
	cfg.Partitions = *partitions
	cfg.Strategy = *strategyName
	cfg.Horizon = *horizon
	cfg.Mechanism = *mechName
	b, err := box.New(cfg)
	if err != nil {
		slog.Error("gridmarketd: box construction failed", "err", err)
		os.Exit(1)
	}
	jobs, err := jobapi.NewService(b.Scheduler(), b.Engine)
	if err != nil {
		slog.Error("gridmarketd: job service construction failed", "err", err)
		os.Exit(1)
	}

	// Readiness gates on the simulation pump having advanced the engine at
	// least once, so early requests never race the first reallocation.
	health := httpapi.NewHealth("gridmarketd", "engine")

	// Drive the simulation along the wall clock, accelerated: one wall
	// second advances the market by -speedup simulated seconds, so a
	// "2-CPU-minute" demo job completes in a couple of wall seconds.
	go func() {
		wallStart := time.Now()
		simStart := cfg.Start
		for range time.Tick(200 * time.Millisecond) {
			elapsed := time.Since(wallStart)
			jobs.Drive(simStart.Add(time.Duration(float64(elapsed) * *speedup)))
			health.MarkReady("engine")
		}
	}()

	demo := &demoAPI{box: b, jobs: jobs}
	mux := http.NewServeMux()
	mux.Handle("/jobs", jobs)
	mux.Handle("/jobs/", jobs) // subtree: GET /jobs/{id}/timeline
	mux.Handle("/boosts", jobs)
	mux.Handle("/cancels", jobs)
	mux.Handle("/monitor", jobs)
	mux.Handle("/bank/", http.StripPrefix("/bank", httpapi.NewBankService(b.Bank)))
	mux.HandleFunc("POST /demo/users", demo.createUser)
	mux.HandleFunc("POST /demo/tokens", demo.mintToken)

	slog.Info("gridmarketd: listening",
		"hosts", *hosts, "cpus", *cpus, "speedup", *speedup, "addr", *addr)
	// The conservation probe runs against the box's single in-process bank.
	if err := telemetry.Serve(telemetry.Daemon{
		Service: "gridmarketd", Addr: *addr, App: mux, Health: health,
		Probes: []func(){b.Bank.RecordConservation}, ScrapeEvery: *scrapeEvery, Pprof: *pprofOn,
	}); err != nil {
		slog.Error("gridmarketd: serve failed", "err", err)
		os.Exit(1)
	}
	slog.Info("gridmarketd: shut down cleanly")
}

// demoAPI mints server-side demo identities. It reads and grows box.Users,
// the box's one user index, only under the job service lock, which
// serializes every access to the single-threaded engine.
type demoAPI struct {
	box  *box.Box
	jobs *jobapi.Service
}

type userReq struct {
	Name  string `json:"name"`
	Grant string `json:"grant"`
}

type tokenReq struct {
	User   string `json:"user"`
	Amount string `json:"amount"`
}

func (d *demoAPI) createUser(w http.ResponseWriter, r *http.Request) {
	var req userReq
	if err := httpapi.ReadJSON(r, &req); err != nil {
		httpapi.WriteError(w, httpapi.ReadStatus(err), err)
		return
	}
	grant, err := bank.ParseAmount(req.Grant)
	if err != nil || grant < 0 {
		httpapi.WriteError(w, http.StatusBadRequest, errors.New("gridmarketd: bad grant amount"))
		return
	}
	var u *box.User
	d.jobs.WithLock(func() { u, err = d.box.CreateUser(req.Name, grant) })
	if err != nil {
		httpapi.WriteError(w, http.StatusBadRequest, err)
		return
	}
	httpapi.WriteJSON(w, map[string]string{
		"name": u.Name, "account": string(u.Account), "grant": grant.String(),
	})
}

func (d *demoAPI) mintToken(w http.ResponseWriter, r *http.Request) {
	var req tokenReq
	if err := httpapi.ReadJSON(r, &req); err != nil {
		httpapi.WriteError(w, httpapi.ReadStatus(err), err)
		return
	}
	amount, err := bank.ParseAmount(req.Amount)
	if err != nil || amount <= 0 {
		httpapi.WriteError(w, http.StatusBadRequest, errors.New("gridmarketd: bad token amount"))
		return
	}
	var tok token.Token
	d.jobs.WithLock(func() {
		i := slices.IndexFunc(d.box.Users, func(u *box.User) bool { return u.Name == req.User })
		if i < 0 {
			err = fmt.Errorf("gridmarketd: unknown user %q", req.User)
			return
		}
		tok, err = d.box.MintToken(d.box.Users[i], amount)
	})
	var enc string
	if err == nil {
		enc, err = token.Encode(tok)
	}
	if err != nil {
		httpapi.WriteError(w, http.StatusBadRequest, err)
		return
	}
	httpapi.WriteJSON(w, map[string]string{"token": enc})
}
