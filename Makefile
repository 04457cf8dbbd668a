GO ?= go

.PHONY: all build vet test race race-check fuzz-short cover bench bench-grid bench-suite bench-compare bench-pairs simplicity-ledger perf-gates recovery-smoke telemetry-smoke chaos trace-demo examples lint check

all: build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The metrics subsystem is lock-light by design; the race target is the gate
# that keeps it honest (see internal/metrics/stress_test.go). With the
# replication runner driving whole simulated worlds concurrently
# (internal/experiment/replicate.go), enqueuers racing the per-shard
# TickShard workers that bench's plane-burst runs (internal/marketplane's
# tests), gridmarketd's handlers beside its engine loop, and the bank's
# group-committed log under concurrent writers (internal/bank,
# internal/durable), this covers every concurrent path end to end.
race:
	$(GO) test -race ./...

race-check: race

# Short fuzz pass over the grammar-shaped inputs (the xRSL job-description
# parser, the W3C traceparent header decoder, ...) and the differential
# targets (Best Response over runs of interchangeable candidates against its
# per-host oracles, the ordered order book against the map-keyed market it
# replaced), WAL replay (bytes -> a bank record applied to a live ledger) and
# the bank's HTTP transfer route (bytes -> POST /transfers on a live ledger).
# Seed corpora live under each package's testdata/fuzz/;
# FUZZTIME is per target. Go allows one fuzz target per invocation, hence one
# run each.
FUZZTIME ?= 5s
fuzz-short:
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME) ./internal/xrsl
	$(GO) test -run '^$$' -fuzz '^FuzzParseTraceparent$$' -fuzztime $(FUZZTIME) ./internal/tracing
	$(GO) test -run '^$$' -fuzz '^FuzzRing$$' -fuzztime $(FUZZTIME) ./internal/pricefeed
	$(GO) test -run '^$$' -fuzz '^FuzzWALRecover$$' -fuzztime $(FUZZTIME) ./internal/durable
	$(GO) test -run '^$$' -fuzz '^FuzzBankRecord$$' -fuzztime $(FUZZTIME) ./internal/bank
	$(GO) test -run '^$$' -fuzz '^FuzzHistoryQuery$$' -fuzztime $(FUZZTIME) ./internal/telemetry
	$(GO) test -run '^$$' -fuzz '^FuzzFleetIngest$$' -fuzztime $(FUZZTIME) ./internal/telemetry
	$(GO) test -run '^$$' -fuzz '^FuzzMechanismClear$$' -fuzztime $(FUZZTIME) ./internal/mechanism
	$(GO) test -run '^$$' -fuzz '^FuzzBestResponseRuns$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzBookOps$$' -fuzztime $(FUZZTIME) ./internal/auction
	$(GO) test -run '^$$' -fuzz '^FuzzTransferBody$$' -fuzztime $(FUZZTIME) ./internal/httpapi

# Coverage gate for the market-critical packages: the clearing mechanisms,
# the SLA terms/valuation layer, and the prediction models (the streaming AR
# every forecast handle reads, and the batch AR it is held to within 1e-9 —
# every predicted-* pick flows through their forecasts) must stay
# >= $(COVER_MIN)% statement coverage. Money changes hands through these
# packages; untested branches there are billing bugs waiting to happen.
COVER_MIN ?= 85
cover:
	@for pkg in ./internal/mechanism ./internal/sla ./internal/predict; do \
		pct=$$($(GO) test -count=1 -cover $$pkg | awk '/coverage:/ { gsub("%","",$$(NF-2)); print $$(NF-2) }'); \
		if [ -z "$$pct" ]; then echo "cover: no coverage output for $$pkg"; exit 1; fi; \
		ok=$$(awk -v p="$$pct" -v m="$(COVER_MIN)" 'BEGIN { print (p >= m) ? 1 : 0 }'); \
		if [ "$$ok" != 1 ]; then echo "cover: $$pkg at $$pct% < $(COVER_MIN)%"; exit 1; fi; \
		echo "cover: $$pkg $$pct% >= $(COVER_MIN)%"; \
	done

# Static analysis beyond go vet. Pinned so results are reproducible; the
# binary is not vendored and this environment cannot fetch it, so the target
# degrades to a skip (with the install hint) when staticcheck is absent.
STATICCHECK_VERSION ?= 2025.1
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed; skipping" ; \
		echo "lint: install with: go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)"; \
	fi

# Paper-artifact regeneration plus the metrics micro-benchmarks, including the
# instrumentation overhead bars priced against one 300-host busy tick (the
# clears' counters and gauges overhead_% < 5, the tick's phase timing under a
# self-scraping collector overhead_% < 2), BenchmarkClusterTickIdle10k, which
# reports the job path's unit cost as ns/host-tick, and BenchmarkSubmit10kIdle
# and BenchmarkSubmit10k800Awake, its other unit: one submission into 10 000
# sleeping hosts, and one among 800 awake ones as grid-wide makes mid-wave.
bench:
	$(GO) test -run '^$$' -bench . -benchmem .

# The repository's one benchmark (bench/README.md, contract in BENCHMARK.json):
# six workloads over the job path, the bid plane and the transfer path, five
# end-to-end metrics each, per-layer metrics in a traced run.
#
# bench-grid is the job path from both sides — 10 000 mostly idle hosts, then
# 300 saturated ones — traced, so the layer metrics (grid.tick_us,
# agent.submit_us, core.best_response_ns, auction.tick_ns, ...) print next to
# the counts that must repeat exactly (sim.digest, auction.clears, ...).
bench-grid:
	$(GO) run ./bench --workload grid-wide --trace 1
	$(GO) run ./bench --workload grid-dense --trace 1

# bench-suite runs every workload on seeds 1..10, each in a fresh child, and
# writes the runs with their spreads; bench-compare judges two such files
# metric by metric against the bounds in BENCHMARK.json (exit 1 on "worse"):
#   make bench-suite BENCH_OUT=before.json   # at the parent commit
#   make bench-suite BENCH_OUT=after.json    # at the change
#   make bench-compare A=before.json B=after.json
BENCH_OUT ?= bench/out/suite.json
bench-suite:
	$(GO) run ./bench -runs 10 -out $(BENCH_OUT)

bench-compare:
	@if [ -z "$(A)" ] || [ -z "$(B)" ]; then echo "usage: make bench-compare A=before.json B=after.json"; exit 2; fi
	$(GO) run ./bench -compare $(A) $(B)

# bench-pairs is the other half of the judging rule for a perf claim — "ten
# alternating pairs on seeds not used while writing the change" — which every
# perf PR had been rolling by hand:
#   make bench-pairs BASE=HEAD~1 WORKLOAD=grid-dense SEEDS="91 92 93 94 95 96 97 98 99 100"
# BASE's committed files are unpacked (git archive) into a fresh temporary
# directory outside the repo, so the repo's .git is left as it was, and the
# working tree's files (tracked and untracked, less what .gitignore names) are
# copied into another, so both sides run from equivalent fresh trees: a side
# run from the repo itself read slower on the same commit (bank-mem). Each
# tree's ./bench is built once, and each binary runs from its own tree's root
# (so bank-* builds and serves that tree's bankd) — BASE first on odd
# positions, the working tree first on even ones, so neither side always runs
# on the warmer machine; the run length is each tree's own BENCHMARK.json
# run_seconds, as in bench-suite. One row per run (the five end-to-end metrics, the
# machine-speed reading, failed operations, sim.digest), then each side's
# median and quartiles and the working tree's wins over the pairs, metric by
# metric, and whether the claim rule of the choosing-metrics guide holds: the
# head better in at least nine tenths of the pairs, ties counting for
# neither, and its median better than the base's by more than the base's
# quartile spread. The temporary directories are removed on the way out.
bench-pairs:
	@if [ -z "$(BASE)" ] || [ -z "$(WORKLOAD)" ] || [ -z "$(SEEDS)" ]; then \
		echo 'usage: make bench-pairs BASE=<rev> WORKLOAD=<name> SEEDS="91 92 ..."'; exit 2; fi
	@set -e; base=$$(mktemp -d); head=$$(mktemp -d); rows=$$(mktemp); \
	trap 'rm -rf "$$base" "$$head" "$$rows"' EXIT; \
	trap 'exit 130' INT TERM; \
	rev=$$(git rev-parse --verify "$(BASE)^{commit}"); git archive "$$rev" | tar -x -C "$$base"; \
	git ls-files -z --cached --others --exclude-standard | tar --null --ignore-failed-read -T - -c 2>/dev/null | tar -x -C "$$head"; \
	(cd "$$base" && $(GO) build -o .bench_build/pairs-bench ./bench); \
	(cd "$$head" && $(GO) build -o .bench_build/pairs-bench ./bench); \
	run() { \
		out=$$(cd "$$2" && ./.bench_build/pairs-bench --workload $(WORKLOAD) --seed $$3 --trace 0 2>&1) || true; \
		echo "$$out" | awk -v side=$$1 -v seed=$$3 ' \
			$$1 == "setup_s" || $$1 == "ops_per_s" || $$1 == "op_p50_us" || $$1 == "cpu_us_per_op" || $$1 == "peak_rss_mb" { m[$$1] = $$2 } \
			$$1 == "note" && $$2 == "machine" { speed = $$4 } \
			$$1 == "note" && $$2 == "sim.digest" { digest = $$3 } \
			$$1 == "attempted" { failed = $$4 } \
			END { if (!("ops_per_s" in m)) exit 1; \
				printf "%-5s %-6s %10.4f %12.2f %12.2f %14.2f %12.1f %6s %6s %s\n", seed, side, \
					m["setup_s"], m["ops_per_s"], m["op_p50_us"], m["cpu_us_per_op"], m["peak_rss_mb"], speed, failed, digest }' \
			| tee -a "$$rows" | grep . || { echo "$$out"; echo "bench-pairs: $$1 run on seed $$3 printed no metrics"; exit 1; }; \
	}; \
	echo "$(WORKLOAD): base = $(BASE) ($$(git rev-parse --short $(BASE))), head = the working tree at $$(git rev-parse --short HEAD)"; \
	printf "%-5s %-6s %10s %12s %12s %14s %12s %6s %6s %s\n" seed side setup_s ops_per_s op_p50_us cpu_us_per_op peak_rss_mb speed failed sim.digest; \
	i=0; for seed in $(SEEDS); do i=$$((i + 1)); \
		if [ $$((i % 2)) -eq 1 ]; then run base "$$base" $$seed; run head "$$head" $$seed; \
		else run head "$$head" $$seed; run base "$$base" $$seed; fi; \
	done; \
	awk ' \
		function q(a, n, p,   x, lo) { x = (n - 1) * p + 1; lo = int(x); return lo >= n ? a[n] : a[lo] + (x - lo) * (a[lo + 1] - a[lo]) } \
		function line(side, k,   a, n, i, j, t, s, key) { n = 0; for (s in v) { split(s, key, SUBSEP); if (key[1] == side && key[2] == k) a[++n] = v[s] } \
			for (i = 2; i <= n; i++) for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t } \
			med[side] = q(a, n, 0.5); iqr[side] = q(a, n, 0.75) - q(a, n, 0.25); \
			printf "%-14s %-5s median %12.4f  quartiles %12.4f .. %-12.4f\n", name[k], side, med[side], q(a, n, 0.25), q(a, n, 0.75) } \
		BEGIN { name[3] = "setup_s"; name[4] = "ops_per_s"; name[5] = "op_p50_us"; name[6] = "cpu_us_per_op"; name[7] = "peak_rss_mb" } \
		{ for (k = 3; k <= 7; k++) v[$$2, k, $$1] = $$k; seeds[$$1] = 1 } \
		END { print ""; for (k = 3; k <= 7; k++) { line("base", k); line("head", k); wins = 0; pairs = 0; \
			for (s in seeds) { pairs++; b = v["base", k, s]; h = v["head", k, s]; if (k == 4 ? h > b : h < b) wins++ } \
			gain = k == 4 ? med["head"] - med["base"] : med["base"] - med["head"]; \
			printf "%-14s head better in %d / %d pairs; median better by %.4f, base quartile spread %.4f: claim %s\n", name[k], wins, pairs, gain, iqr["base"], \
				(10 * wins >= 9 * pairs && gain > iqr["base"]) ? "holds" : "does not hold" } }' "$$rows"

# What ROADMAP's judging rule asks of a simplicity claim, since BASE: non-test
# Go lines outside bench/ added, deleted and net; then test Go lines outside
# bench/ the same way, so that code moved into a _test.go (non-test -n, test
# +n) is told apart from code deleted outright; then every command-line flag
# defined (flag.X("name", ...) or fs.X("name", ...)) that a changed file gained
# or lost, compared file by file so a flag that only moved is not listed; then
# every exported top-level declaration (func, method as Type.Method on an
# exported type, type, const, var) and every exported field of an exported
# struct type (Type.Field — each one an option when the struct is a config)
# the changed files gained or lost, named by package directory and compared
# across the whole changed set, so one that only moved between files of a
# package is not listed.
#   make simplicity-ledger BASE=HEAD~1
LEDGER_PATHS = '*.go' ':!*_test.go' ':!bench'
LEDGER_FLAGS = grep -oE '\b(flag|fs)\.[A-Z][a-z0-9]*\("[^"]+"' | sed 's/.*("/-/; s/"$$//' | sort -u
LEDGER_DECLS = awk -v pkg="$$(dirname $$f)" ' \
	function out(kind, name) { sub(/[\[(].*/, "", name); if (name ~ /^[A-Z]/) print pkg "." name " (" kind ")" } \
	function open(name, line) { sub(/[\[].*/, "", name); st = name; depth = 0; braces(line) } \
	function braces(line) { sub(/\/\/.*/, "", line); gsub(/`[^`]*`/, "", line); gsub(/"[^"]*"/, "", line); \
		depth += gsub(/[{]/, "{", line) - gsub(/[}]/, "}", line); if (depth <= 0) st = "" } \
	st != "" { line = $$0; sub(/\/\/.*/, "", line); gsub(/`[^`]*`/, "", line); \
		if (depth == 1 && st ~ /^[A-Z]/ && line ~ /^\t+[A-Z]/) { n = split(line, w, " "); \
			for (i = 1; i <= n; i++) { fld = w[i]; more = sub(/,$$/, "", fld); \
				if (fld ~ /^[A-Z][A-Za-z0-9_]*$$/) print pkg "." st "." fld " (field)"; if (!more) break } } \
		braces($$0); next } \
	/^\)/ { grp = "" } \
	grp != "" && /^\t[A-Z]/ { for (i = 1; i <= NF; i++) { n = $$i; more = sub(/,$$/, "", n); out(grp, n); if (!more) break } } \
	/^(const|var|type) \($$/ { grp = $$1; next } \
	/^(const|var|type) [A-Za-z]/ { for (i = 2; i <= NF; i++) { n = $$i; more = sub(/,$$/, "", n); out($$1, n); if (!more) break } } \
	/^func [A-Z]/ { out("func", $$2) } \
	/^func \(/ { r = $$0; sub(/^func \(/, "", r); m = r; sub(/^[^)]*\) */, "", m); sub(/\).*/, "", r); \
		n = split(r, a, " "); t = a[n]; sub(/^\*/, "", t); sub(/\[.*/, "", t); \
		if (t ~ /^[A-Z]/ && m ~ /^[A-Z]/) out("method", t "." m) } \
	/^type [A-Za-z_][A-Za-z0-9_]*(\[.*\])? struct [{]/ { open($$2, $$0) } \
	grp == "type" && /^\t[A-Za-z_][A-Za-z0-9_]*(\[.*\])? struct [{]/ { open($$1, $$0) }'
simplicity-ledger:
	@if [ -z "$(BASE)" ]; then echo "usage: make simplicity-ledger BASE=<rev>"; exit 2; fi
	@git diff --numstat $(BASE) -- $(LEDGER_PATHS) | awk '{ a += $$1; d += $$2 } \
		END { printf "non-test Go lines outside bench/ since $(BASE): +%d / -%d = %+d net\n", a, d, a - d }'
	@git diff --numstat $(BASE) -- '*_test.go' ':!bench' | awk '{ a += $$1; d += $$2 } \
		END { printf "test Go lines outside bench/ since $(BASE):     +%d / -%d = %+d net\n", a, d, a - d }'
	@old=$$(mktemp); new=$$(mktemp); oldd=$$(mktemp); newd=$$(mktemp); \
	for f in $$(git diff --name-only $(BASE) -- $(LEDGER_PATHS)); do \
		git show $(BASE):$$f 2>/dev/null | $(LEDGER_FLAGS) > $$old; \
		cat $$f 2>/dev/null | $(LEDGER_FLAGS) > $$new; \
		comm -13 $$old $$new | sed "s|^|flag added:   $$f |"; \
		comm -23 $$old $$new | sed "s|^|flag removed: $$f |"; \
		git show $(BASE):$$f 2>/dev/null | $(LEDGER_DECLS) >> $$oldd; \
		cat $$f 2>/dev/null | $(LEDGER_DECLS) >> $$newd; \
	done; \
	sort -u -o $$oldd $$oldd; sort -u -o $$newd $$newd; \
	comm -13 $$oldd $$newd | sed "s|^|identifier added:   |"; \
	comm -23 $$oldd $$newd | sed "s|^|identifier removed: |"; \
	rm -f $$old $$new $$oldd $$newd

# Performance gates that cannot flake, because they count instead of timing:
# the benchmark's own smoke test (every workload at toy size, run twice, equal
# digests), and the allocation gates of the job path's fast paths — an idle
# Market.Tick feeding the market's one price ring, raised to a run's length,
# and the agent's forecast model (what an experiment world that reads a whole
# run under a meta-scheduler hangs on every host) and
# PriceExcluding on an empty book allocate nothing, Best Response over 10 000 hosts allocates a handful,
# the streaming AR model in steady state allocates nothing per Observe or
# Forecast, a forecast that re-solves Yule-Walker included, nor does
# ForecastMean over a partition of 4 models and one of 5 (a full lane pass,
# then one with a remainder lane), each model re-solving at every call
# (TestStreamingSteadyStateAllocatesNothing), and an all-idle cluster tick allocates a constant few bytes however
# many hosts there are — and in a 10 000-host world executes no clear at all
# over 100 ticks, after which Cluster.Sync hands every host's ring exactly the
# 100 samples it was owed (TestSleepingWorldTickAllocationBound) — and a
# submission into 10 000 sleeping hosts hands Best Response at most 2 runs and
# allocates nothing per host (TestSubmitAllocationBound), and a busy tick — 300 hosts with 8 bids and 8
# tasks each, every charge booked on its job's tab — allocates at most 0.05
# times per busy host (it reads 10 for the whole tick, none of them a host's:
# the charges, refunds, outcome lines, shares and live-bid snapshot reuse
# their market's buffers, the tabs and settle's memo the agent's)
# and makes no bank move at all; the bank gets one charge entry per (job,
# host) when the jobs are released; and one such tick adds exactly its 300
# clears to auction_clears_total and exactly one observation to each
# grid_tick_phase_seconds{phase} (TestBusyTickAllocationBound); a signed POST
# /transfers allocates at most 39 times, the httptest fixture's 11 included
# (TestTransferServeAllocationBound); a host's price history costs what it
# holds — a ring with one sample keeps an 8-slot buffer, a full one observes
# in place (TestRingAllocationBound), a daemon's metric series, the same
# ring, likewise: 32 series after 100 scrapes hold at most 128 points' buffer
# (2 KiB) and 1 KiB besides each, where reserved rings held 64 KiB each
# (TestDBAllocationBound) — and a history nobody reads is not kept:
# the first tick of a 10 000-host world without a meta-scheduler records no
# price sample and grows the heap by at most 1.5 MB, where the agent's rings
# made it 2.2 MB and reserving every ring's 720 slots 115 MB
# (TestWideGridRingAllocationBound), and agent.New over 10 000 hosts
# allocates no object per host and at most 96 B a host, where hanging a ring
# on each took 2.0 objects and 183 B (TestNewAllocationBound); a proportional clear
# into a reused line buffer allocates nothing
# (TestProportionalReusedDstAllocatesNothing); and an identity's public key
# is handed out, not copied (TestPublicAllocatesNothing); and the simulation
# engine's periodic tick plus a one-shot event allocate nothing, where the
# stoppable ticker built a closure a tick (TestEveryAllocatesNothing); and the
# bid path keeps what it allocates: a round of 2 000 re-bids through the
# plane's queue plus the TickShard that applies them allocates nothing, where
# each drain dropped the queue's array and each TickShard made its slice (14
# a round; TestEnqueueDrainAllocatesNothing), and an escrow created, funded,
# charged and refunded allocates at most 1.05 heap objects, its record, where
# a discarded *Account view made it 2.01 (TestEscrowLifecycleAllocationBound);
# and a finished job keeps its record and nothing it was submitted with: 600
# of grid-dense's jobs, xRSL text with an encoded token through
# arc.Manager.Submit into 300 hosts, keep at most 5 600 B of heap each once
# finished and purged, where a request pinning its text (spent token
# included) and a released job's busy map and chunk queue made it ≈ 6 700 B,
# and its ended lifecycle span and callbacks ≈ 5 020 B
# (TestFinishedJobRetentionAllocationBound); and a VM booted for an owner
# whose first VM still runs allocates its record and its ID, 2 objects, where
# its runtime-environment set and a formatted ID made it 4
# (TestAcquireFreshVMAllocationBound). Two gates time instead of
# counting, because what each holds is a ratio of two timings no count can
# stand for. Best Response costs one step per run, not per member: over one
# run of 100 000 members it costs at most 2x what it costs over 1 000, in the
# median of nine rounds that time the two back to back; it read 27-65x while
# a run was admitted a member at a time (TestBestResponseRunsWidthScaling).
# And signed transfers into an in-memory bank scale with cores, since Ed25519 runs
# outside the ledger lock — BenchmarkBankTransferParallel's transfers/s at
# -cpu 2 over -cpu 1 must be at least 1.4x in the median of nine short rounds.
# Each round runs the two back to back, so that the machine's speed changing
# between them (this runner's swings by 1.6x within seconds) makes an outlier
# round, not a verdict. The median read 0.91-0.99x while the lock covered the
# signatures and 1.58-2.01x since; Ed25519 verify alone scales ~1.6x on the
# 2-vCPU runner when it runs at full speed. It needs two cores and is
# skipped, saying so, on fewer. Wired into `check`.
perf-gates:
	$(GO) test -count=1 ./bench
	$(GO) test -count=1 -run 'AllocatesNothing|AllocationBound|WidthScaling' ./internal/agent ./internal/auction ./internal/bank ./internal/core ./internal/experiment ./internal/grid ./internal/httpapi ./internal/marketplane ./internal/matrix ./internal/mechanism ./internal/pki ./internal/predict ./internal/sim ./internal/tsdb ./internal/vm
	@if [ "$$(nproc)" -lt 2 ]; then echo "perf-gates: fewer than two cores, transfer scaling not gated"; exit 0; fi; \
	dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(GO) test -c -o "$$dir/bank.test" ./internal/bank || exit 1; \
	out=$$(for round in 1 2 3 4 5 6 7 8 9; do "$$dir/bank.test" -test.run '^$$' -test.bench '^BenchmarkBankTransferParallel$$' -test.benchtime 2000x -test.cpu 1,2 || exit 1; done) || { echo "$$out"; exit 1; }; \
	echo "$$out" | awk ' \
		$$1 ~ /^BenchmarkBankTransferParallel/ { for (i = 2; i <= NF; i++) if ($$i == "transfers/s") { if ($$1 !~ /-2$$/) one = $$(i - 1); else if (one) { r[++n] = $$(i - 1) / one; one = 0 } } } \
		END { if (n != 9) { print "perf-gates: BenchmarkBankTransferParallel printed " n " of 9 rounds"; exit 1 } \
			for (i = 2; i <= n; i++) for (j = i; j > 1 && r[j - 1] > r[j]; j--) { t = r[j]; r[j] = r[j - 1]; r[j - 1] = t } \
			printf "perf-gates: signed transfers at -cpu 2 over -cpu 1, nine rounds: %.2fx .. %.2fx, median %.2fx (want >= 1.4x)\n", r[1], r[9], r[5]; \
			exit r[5] < 1.4 }'

# Fast crash-recovery health check: the crash-storm test SIGKILLs a real
# bankd mid-traffic (external kills plus failpoints inside the WAL append,
# fsync and snapshot paths) under two concurrent transfer writers and asserts
# exact money conservation, every balance equal to what the receipts imply and
# no duplicate receipt application. Wired into `check`; the
# full 20-cycle storm runs in `go test ./cmd/bankd`.
recovery-smoke:
	$(GO) test -run '^TestCrashStorm$$' -count=1 ./cmd/bankd -args -storm.cycles=6

# Observability smoke: run the quickstart with every trace sampled and with
# none, and assert both times that the job's lifecycle timeline came back
# non-empty — the "completed" event proves the whole funded -> bid -> placed
# -> completed chain recorded, and the ratio-0 run that it does not depend on
# tracing.
trace-demo:
	@for ratio in 1 0; do \
		out=$$($(GO) run ./examples/quickstart $$ratio) || exit 1; \
		echo "$$out" | grep -q 'timeline (trace ' || { echo "trace-demo: no timeline header at sampling $$ratio"; exit 1; }; \
		echo "$$out" | grep -q ' completed ' || { echo "trace-demo: no completed event at sampling $$ratio"; exit 1; }; \
		echo "trace-demo: timeline OK at sampling $$ratio"; \
	done

# Every example program runs to completion: a non-zero exit fails the target.
# Three of them (portfolio, reservations, priceprediction) read the price
# trace a load run records; trace-demo above runs only the quickstart. Each
# takes under a second once built.
examples:
	@for d in examples/*/; do \
		d=$${d%/}; \
		$(GO) run ./$$d > /dev/null || { echo "examples: $$d exited non-zero"; exit 1; }; \
		echo "examples: $$d OK"; \
	done

# Telemetry-plane smoke: boot real bankd (handler-latency chaos armed via
# TYCOON_CHAOS_HANDLER_*) and slsd hosting the fleet aggregator, assert
# /metrics/history and /slo respond, the injected latency trips the
# request-latency-p99 SLO within one evaluation window, and gridtop -once
# renders the violation (daemon mode) and the peer table (fleet mode).
telemetry-smoke:
	$(GO) test -run '^TestTelemetrySmoke$$' -count=1 ./cmd/gridtop

# End-to-end fault-tolerance run: the full market under 20%+ host churn,
# race-checked, then the box's own churn tests (a separate command: the box
# test binary has no -chaos.seed flag). Deterministic — rerun a failure with
# the same seed.
CHAOS_SEED ?= 1
chaos:
	$(GO) test -race -count=1 ./internal/chaos -args -chaos.seed=$(CHAOS_SEED)
	$(GO) test -race -count=1 -run 'Churn|EveryAxisComposes' ./internal/box

check: vet lint race-check cover fuzz-short chaos trace-demo examples perf-gates recovery-smoke telemetry-smoke
