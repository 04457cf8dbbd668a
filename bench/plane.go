package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"tycoongrid/internal/auction"
	"tycoongrid/internal/bank"
	"tycoongrid/internal/marketplane"
	"tycoongrid/internal/metrics"
	"tycoongrid/internal/pki"
	"tycoongrid/internal/sim"
	"tycoongrid/internal/tracing"
)

// planeSize shapes the bid-plane workload: the BENCH_scale scenario, but the
// batched algorithm only, at a fixed shard count. Bids arrive at a fixed
// number per tick; the requested seconds buy arrival ticks.
type planeSize struct {
	hosts, users   int
	bidsPerTick    int
	ticksPerSecond float64 // calibration: arrival ticks that fit one wall second
	setupRepeats   int
}

const (
	planeShards     = 2 // = nproc of the sizing machine; selects the regime, never scaled
	planeLifetime   = 3 // ticks a bid lives
	planeCandidates = 32
)

var (
	planeFull   = planeSize{hosts: 10000, users: 1000, bidsPerTick: 40000, ticksPerSecond: 3.2, setupRepeats: 5}
	planeToy    = planeSize{hosts: 400, users: 50, bidsPerTick: 4000, ticksPerSecond: 5, setupRepeats: 2}
	planeBudget = bank.MustCredits(2)
)

// planeBid is one pre-generated bid and its settlement state. A bid lands on
// exactly one host, so after placement only the worker of that host's shard
// touches it.
type planeBid struct {
	id           auction.BidderID
	user         int32
	base, stride uint16 // candidate hosts: base + c*stride mod hosts
	host         int32  // chosen host; -1 until placed
	charged      bank.Amount
	refund       bank.Amount
	settled      bool
}

// planeWorld is everything set-up builds.
type planeWorld struct {
	op      *pki.Identity
	markets []marketplane.HostMarket
	plane   *marketplane.Plane
	sbank   *marketplane.ShardedBank
	users   []bank.AccountID
	earn    []bank.AccountID
	supply  bank.Amount
}

type fixedClock time.Time

func (c fixedClock) Now() time.Time { return time.Time(c) }

func buildPlaneWorld(sz planeSize, seed int64, perUser bank.Amount) (*planeWorld, error) {
	var caSeed, opSeed [32]byte
	copy(caSeed[:], fmt.Sprintf("bench-plane-ca-%016x", uint64(seed)))
	copy(opSeed[:], fmt.Sprintf("bench-plane-op-%016x", uint64(seed)))
	ca, err := pki.NewDeterministicCA("/O=Grid/CN=BenchPlaneCA", caSeed)
	if err != nil {
		return nil, err
	}
	w := &planeWorld{}
	if w.op, err = ca.IssueDeterministic("/CN=BenchPlaneOperator", opSeed); err != nil {
		return nil, err
	}
	quiet := tracing.New(tracing.WithCapacity(8))
	quiet.SetSampleRatio(0)
	w.markets = make([]marketplane.HostMarket, sz.hosts)
	for i := range w.markets {
		m, err := auction.NewMarket(auction.Config{
			HostID: fmt.Sprintf("h%05d", i), CapacityMHz: 2800, Start: sim.Epoch, Tracer: quiet,
		})
		if err != nil {
			return nil, err
		}
		w.markets[i] = m
	}
	if w.plane, err = marketplane.New(marketplane.Config{Shards: planeShards, Markets: w.markets}); err != nil {
		return nil, err
	}
	w.sbank = marketplane.NewShardedBank(w.op, fixedClock(sim.Epoch), planeShards,
		[]bank.Option{bank.WithLedgerRetention(8192), bank.WithTracer(quiet)})
	w.users = make([]bank.AccountID, sz.users)
	for u := range w.users {
		w.users[u] = bank.AccountID(fmt.Sprintf("u%05d", u))
		if _, err := w.sbank.CreateAccount(w.users[u], w.op.Public()); err != nil {
			return nil, err
		}
		if err := w.sbank.Deposit(w.users[u], perUser, "bench allocation"); err != nil {
			return nil, err
		}
		w.supply += perUser
	}
	w.earn = make([]bank.AccountID, sz.hosts)
	for h := range w.earn {
		w.earn[h] = bank.AccountID(fmt.Sprintf("e%05d", h))
		if _, err := w.sbank.CreateAccount(w.earn[h], w.op.Public()); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// planeWorker is one shard worker's timers and counters.
type planeWorker struct {
	fund, discover, enqueue, tick, settle time.Duration
	opNs                                  []int64
	rec                                   *recorder
	err                                   error
}

func (pw *planeWorker) fail(err error) {
	if pw.err == nil && err != nil {
		pw.err = err
	}
}

func runPlane(cfg runConfig) (*outcome, error) {
	sz := planeFull
	if cfg.Toy {
		sz = planeToy
	}
	tracing.Default().SetSampleRatio(0)
	arrivalTicks := max(1, int(math.Round(cfg.Seconds*sz.ticksPerSecond)))
	nBids := arrivalTicks * sz.bidsPerTick
	totalTicks := arrivalTicks + planeLifetime + 1
	// Users are drawn at random, so fund each for twice its expected share.
	perUser := bank.Amount(2*nBids/sz.users+16) * planeBudget

	var w *planeWorld
	setup, err := medianSetup(cfg.Workload, sz.setupRepeats, func() (err error) {
		w, err = buildPlaneWorld(sz, cfg.Seed, perUser)
		return err
	})
	if err != nil {
		return nil, err
	}

	// Inputs from the seed, before the clock.
	src := rand.New(rand.NewSource(cfg.Seed))
	bids := make([]planeBid, nBids)
	for j := range bids {
		bids[j] = planeBid{
			id:   auction.BidderID(fmt.Sprintf("esc-%08d", j)),
			user: int32(src.Intn(sz.users)), host: -1,
			base: uint16(src.Intn(sz.hosts)), stride: uint16(1 + src.Intn(sz.hosts-1)),
		}
	}
	// Bid j arrives at tick j / bidsPerTick and is placed by worker j % shards.
	shardOfHost := make([]int8, sz.hosts)
	for h, m := range w.markets {
		s, _ := w.plane.ShardIndexOf(m.HostID())
		shardOfHost[h] = int8(s)
	}
	workers := make([]*planeWorker, planeShards)
	for i := range workers {
		workers[i] = &planeWorker{opNs: make([]int64, 0, nBids/planeShards+1)}
	}
	runtime.GC()

	var msBefore, msAfter runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	snapBefore := metrics.Default().Snapshot()
	start := time.Now()
	for _, pw := range workers {
		pw.rec = newRecorder(cfg.Trace, start)
	}
	// One slice per tick. Only steady-state ticks count as operations: those
	// that both place a tick's worth of new bids and settle an old one.
	var marks []mark
	steady := 0

	move := func(pw *planeWorker, from, to bank.AccountID, amt bank.Amount, kind bank.EntryKind) bool {
		err := w.sbank.MoveInternal(w.op, from, to, amt, kind, "")
		if err != nil {
			pw.fail(fmt.Errorf("moving %s -> %s: %w", from, to, err))
		}
		return err == nil
	}
	fanOut := func(fn func(wi int, pw *planeWorker)) {
		parallel(planeShards, func(wi int) { fn(wi, workers[wi]) })
	}

	for t := 0; t < totalTicks; t++ {
		marks = append(marks, cut(steady, selfCPU))
		if t >= planeLifetime && t < arrivalTicks {
			steady += sz.bidsPerTick
		}
		clearT := sim.Epoch.Add(time.Duration(t+1) * auction.DefaultInterval)
		deadline := sim.Epoch.Add(time.Duration(t+1+planeLifetime) * auction.DefaultInterval)

		// Submit: each worker funds, prices and enqueues its share of the
		// tick's arrivals.
		if t < arrivalTicks {
			fanOut(func(wi int, pw *planeWorker) {
				phaseStart := time.Now()
				var fund, discover, enqueue time.Duration
				for j := t*sz.bidsPerTick + wi; j < (t+1)*sz.bidsPerTick; j += planeShards {
					b := &bids[j]
					t0 := time.Now()
					if _, err := w.sbank.CreateAccount(bank.AccountID(b.id), w.op.Public()); err != nil {
						pw.fail(err)
						continue
					}
					if !move(pw, w.users[b.user], bank.AccountID(b.id), planeBudget, bank.EntryTransfer) {
						continue // unfunded: never placed, counted as failed
					}
					t1 := time.Now()
					best, bestPrice, h := -1, 0.0, int(b.base)
					for c := 0; c < planeCandidates; c++ {
						if p := w.plane.PriceAt(h); best < 0 || p < bestPrice {
							best, bestPrice = h, p
						}
						if h += int(b.stride); h >= sz.hosts {
							h -= sz.hosts
						}
					}
					t2 := time.Now()
					w.plane.EnqueueBidAt(best, b.id, planeBudget, deadline)
					t3 := time.Now()
					b.host = int32(best)
					fund += t1.Sub(t0)
					discover += t2.Sub(t1)
					enqueue += t3.Sub(t2)
					pw.opNs = append(pw.opNs, t3.Sub(t0).Nanoseconds())
				}
				pw.fund, pw.discover, pw.enqueue = pw.fund+fund, pw.discover+discover, pw.enqueue+enqueue
				if pw.rec != nil {
					// The three are interleaved per bid; their spans carry the
					// summed time, laid end to end inside the phase.
					root := pw.rec.add("plane.submit", phaseStart, time.Now(), -1, int64(t))
					pw.rec.add("marketplane.fund", phaseStart, phaseStart.Add(fund), root, int64(t))
					pw.rec.add("marketplane.discover", phaseStart.Add(fund), phaseStart.Add(fund+discover), root, int64(t))
					pw.rec.add("marketplane.enqueue", phaseStart.Add(fund+discover), phaseStart.Add(fund+discover+enqueue), root, int64(t))
				}
			})
		}

		// Clear and settle: each shard batch-clears its hosts, books the
		// charges, and settles the bids that reached their deadline.
		fanOut(func(wi int, pw *planeWorker) {
			t0 := time.Now()
			results := w.plane.TickShard(wi, clearT, nil)
			t1 := time.Now()
			for _, r := range results {
				for _, ch := range r.Charges {
					if b := bidOf(bids, ch.Bidder); b != nil {
						b.charged += ch.Amount
					}
				}
				for _, rf := range r.Refunds {
					if b := bidOf(bids, rf.Bidder); b != nil {
						b.refund += rf.Amount
					}
				}
			}
			if at := t - planeLifetime; at >= 0 && at < arrivalTicks {
				for j := at * sz.bidsPerTick; j < (at+1)*sz.bidsPerTick; j++ {
					b := &bids[j]
					if b.host < 0 || int(shardOfHost[b.host]) != wi {
						continue
					}
					if b.charged > 0 {
						move(pw, bank.AccountID(b.id), w.earn[b.host], b.charged, bank.EntryCharge)
					}
					if b.refund > 0 {
						move(pw, bank.AccountID(b.id), w.users[b.user], b.refund, bank.EntryRefund)
					}
					b.settled = true
				}
			}
			t2 := time.Now()
			pw.tick += t1.Sub(t0)
			pw.settle += t2.Sub(t1)
			pw.rec.add("marketplane.tick", t0, t1, -1, int64(t))
			pw.rec.add("marketplane.settle", t1, t2, -1, int64(t))
		})
	}
	marks = append(marks, cut(steady, selfCPU))
	wall := time.Since(start)
	delta := metrics.Default().Snapshot().Delta(snapBefore)
	runtime.ReadMemStats(&msAfter)

	// Gates: money conserved, escrow drained, no orphaned hold, no pending bid.
	out := newOutcome()
	out.attempted = nBids
	for _, pw := range workers {
		if pw.err != nil {
			out.violate("worker error: %v", pw.err)
		}
	}
	settled := 0
	for j := range bids {
		if b := &bids[j]; b.settled && b.charged+b.refund == planeBudget {
			settled++
		}
	}
	out.failed = nBids - settled
	if settled != nBids {
		out.violate("%d of %d bids not charged and refunded in full", nBids-settled, nBids)
	}
	if got := w.sbank.TotalMoney(); got != w.supply {
		out.violate("money not conserved: %s, want %s", got, w.supply)
	}
	if n := len(w.sbank.Holds()); n != 0 {
		out.violate("%d orphaned holds", n)
	}
	for _, id := range w.sbank.Accounts() {
		if !strings.HasPrefix(string(id), "esc-") {
			continue
		}
		if bal, err := w.sbank.Balance(id); err != nil || bal != 0 {
			out.violate("escrow %s not drained: %s (%v)", id, bal, err)
			break
		}
	}

	// Latency per worker per tick, then the median over those chunks.
	var p50s, tails [][]float64
	for _, pw := range workers {
		p50s = append(p50s, chunkQuantiles(pw.opNs, sz.bidsPerTick/planeShards, 0.50))
		tails = append(tails, chunkQuantiles(pw.opNs, sz.bidsPerTick/planeShards, 0.90))
	}
	secs := wall.Seconds()
	if err := out.measured(cfg.Workload, setup, marks, p50s, tails, os.Getpid()); err != nil {
		return nil, err
	}
	out.info("op = one bid placement (fund escrow, price %d hosts, enqueue); tail = p90; slice = one steady-state tick", planeCandidates)
	out.info("whole run: %.0f bids/s over %.2fs, %d ticks", float64(settled)/secs, secs, totalTicks)
	if !cfg.Trace {
		return out, nil
	}

	// Per-phase busy time, summed over workers, as shares of all busy time.
	l := out.layer
	var busy []float64
	var fund, discover, enqueue, tick, settle float64
	for _, pw := range workers {
		fund += pw.fund.Seconds()
		discover += pw.discover.Seconds()
		enqueue += pw.enqueue.Seconds()
		tick += pw.tick.Seconds()
		settle += pw.settle.Seconds()
		busy = append(busy, (pw.fund + pw.discover + pw.enqueue + pw.tick + pw.settle).Seconds())
	}
	total := fund + discover + enqueue + tick + settle
	l["marketplane.fund_share"] = fund / total
	l["marketplane.discover_share"] = discover / total
	l["marketplane.enqueue_share"] = enqueue / total
	l["marketplane.tick_share"] = tick / total
	l["marketplane.settle_share"] = settle / total
	l["marketplane.worker_imbalance"] = math.Max(busy[0], busy[1]) / ((busy[0] + busy[1]) / 2)
	// What is left of the wall is the driver: barriers and goroutine starts.
	l["driver.share"] = 1 - total/float64(planeShards)/secs

	registryCounts(l, delta)
	local := counterDelta(delta, "marketplane_transfers_local_total")
	cross := counterDelta(delta, "marketplane_transfers_cross_shard_total")
	l["marketplane.clears"] = counterDelta(delta, "marketplane_shard_clears_total")
	l["marketplane.local_transfers"] = local
	l["marketplane.cross_shard_share"] = cross / math.Max(1, local+cross)
	l["go.gc_pause_ms"] = float64(msAfter.PauseTotalNs-msBefore.PauseTotalNs) / 1e6
	l["driver.ops_per_s"] = float64(settled) / secs

	rec := workers[0].rec
	for _, pw := range workers[1:] {
		rec.merge(pw.rec)
	}
	replayer{cfg.Toy}.plane(l, sz.hosts)
	return out, out.traced(rec, cfg, wall)
}

// bidOf maps a bidder id ("esc-00000042") back to its bid.
func bidOf(bids []planeBid, id auction.BidderID) *planeBid {
	j, err := strconv.Atoi(string(id)[len("esc-"):])
	if err != nil || j < 0 || j >= len(bids) {
		return nil
	}
	return &bids[j]
}
