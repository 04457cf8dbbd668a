package main

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	"tycoongrid/internal/auction"
	"tycoongrid/internal/bank"
	"tycoongrid/internal/core"
	"tycoongrid/internal/durable"
	"tycoongrid/internal/experiment"
	"tycoongrid/internal/httpapi"
	"tycoongrid/internal/mechanism"
	"tycoongrid/internal/pki"
	"tycoongrid/internal/predict"
	"tycoongrid/internal/pricefeed"
	"tycoongrid/internal/sim"
	"tycoongrid/internal/strategy"
	"tycoongrid/internal/token"
	"tycoongrid/internal/trace"
	"tycoongrid/internal/tracing"
	"tycoongrid/internal/xrsl"
)

// Layer replay: each public function a workload leans on, timed alone on
// inputs shaped like that workload, so that replay x count can be set
// against the in-vivo spans. A replay that cannot set itself up reports
// nothing rather than a wrong number; the smoke test checks none is missing.

// replayer times layers; quick (smoke-test sizes) cuts every batch tenfold.
type replayer struct{ quick bool }

// n scales a batch size.
func (r replayer) n(iters int) int {
	if r.quick {
		return max(2, iters/10)
	}
	return iters
}

// timeOp returns the median ns per call over five batches of n(iters)
// calls; i counts calls across batches, for inputs that must not repeat.
func (r replayer) timeOp(iters int, fn func(i int)) float64 {
	iters = r.n(iters)
	var batches [5]float64
	i := 0
	for b := range batches {
		t0 := time.Now()
		for n := 0; n < iters; n++ {
			fn(i)
			i++
		}
		batches[b] = float64(time.Since(t0).Nanoseconds()) / float64(iters)
	}
	return median(batches[:])
}

var replayEpoch = sim.Epoch

func quietTracer() *tracing.Tracer {
	t := tracing.New(tracing.WithCapacity(8))
	t.SetSampleRatio(0)
	return t
}

// bookMarket returns a market holding k long-lived bids, cleared once.
func bookMarket(host string, k int) *auction.Market {
	m, err := auction.NewMarket(auction.Config{HostID: host, CapacityMHz: 2800, Start: replayEpoch, Tracer: quietTracer()})
	if err != nil {
		panic(err) // constant, valid config
	}
	for b := 0; b < k; b++ {
		if _, err := m.PlaceBid(auction.BidderID(fmt.Sprintf("bidder-%04d", b)), 1000*bank.Credit, replayEpoch.Add(1000*time.Hour)); err != nil {
			panic(err)
		}
	}
	m.Tick(replayEpoch.Add(auction.DefaultInterval))
	return m
}

// replayAuction times the auctioneer at book depth k.
func (r replayer) auction(out map[string]float64, k int) {
	m := bookMarket("replay-book", k)
	out["auction.price_excluding_ns"] = r.timeOp(2000, func(int) { m.PriceExcluding("nobody") })
	out["auction.shares_ns"] = r.timeOp(500, func(int) { m.Shares() })
	out["auction.tick_ns"] = r.timeOp(500, func(i int) {
		m.Tick(replayEpoch.Add(time.Duration(i+2) * auction.DefaultInterval))
	})
	fresh := make([]*auction.Market, 5*r.n(200))
	for i := range fresh {
		fresh[i] = bookMarket(fmt.Sprintf("replay-%04d", i), k)
	}
	out["auction.place_bid_ns"] = r.timeOp(200, func(i int) {
		fresh[i].PlaceBid("newcomer", 50*bank.Credit, replayEpoch.Add(2*time.Hour))
	})
	mech, err := mechanism.New(mechanism.Proportional, mechanism.Config{})
	if err != nil {
		return
	}
	bids := make([]mechanism.Bid, k)
	for b := range bids {
		bids[b] = mechanism.Bid{Bidder: fmt.Sprintf("bidder-%04d", b), Rate: 0.001 * float64(b+1)}
	}
	out["mechanism.clear_ns"] = r.timeOp(2000, func(int) { mech.Clear(bids, mechanism.Capacity{MHz: 2800, Reserve: 1.0 / 3600}) })
}

// replayGrid covers the job path: hosts and book depth k as the workload
// saw them, and the very submission text its generator produces.
func (r replayer) grid(out map[string]float64, hosts, k, jobs int) {
	wc := experiment.PaperWorld()
	wc.Hosts, wc.Users = 4, 2
	w, err := experiment.NewWorld(wc)
	if err != nil {
		return
	}
	u := w.Users[0]
	tok, err := w.MintToken(u, gridJobBudget)
	if err != nil {
		return
	}
	enc, err := token.Encode(tok)
	if err != nil {
		return
	}
	text := fmt.Sprintf(gridJobXRSL, jobs, enc)
	out["xrsl.parse_ns"] = r.timeOp(500, func(int) {
		if d, err := xrsl.Parse(text); err == nil {
			d.ToJobRequest()
		}
	})
	out["token.decode_ns"] = r.timeOp(500, func(int) { token.Decode(enc) })
	if v, err := token.NewVerifier(w.Bank.PublicKey(), w.CA.Certificate(), "broker", nil); err == nil {
		// Every signature is checked before the double-spend lookup, so a
		// spent token costs what a fresh one does.
		out["token.verify_ns"] = r.timeOp(200, func(int) { v.Verify(tok, w.Engine.Now()) })
	}
	r.bankCore(out, w.Bank, u)
	out["bank.subaccount_ns"] = r.timeOp(500, func(i int) {
		w.Bank.CreateSubAccount(u.Account, fmt.Sprintf("replay-%06d", i), u.BankKey.Public())
	})

	cands := make([]core.Host, hosts)
	for i := range cands {
		cands[i] = core.Host{ID: fmt.Sprintf("h%05d", i), Preference: 2800, Price: 1.0/3600 + 1e-7*float64(i%97)}
	}
	out["core.best_response_ns"] = r.timeOp(20, func(int) { core.BestResponse(50.0/7200, cands) })
	r.auction(out, k)

	hub := pricefeed.NewHub(0)
	observe := hub.Observer("replay-host")
	out["pricefeed.observe_ns"] = r.timeOp(20000, func(i int) { observe(1.0/3600, replayEpoch.Add(time.Duration(i+1)*time.Second)) })
	rec := trace.NewRecorder()
	out["trace.record_ns"] = r.timeOp(20000, func(i int) { rec.Record("replay-host", replayEpoch.Add(time.Duration(i+1)*time.Second), 1.0/3600) })
}

// replayBankCore times the in-memory ledger and the signature primitives.
func (r replayer) bankCore(out map[string]float64, b *bank.Bank, u *experiment.GridUser) {
	msg := []byte("bench replay message: sixty-four bytes of transfer-like payload.")
	sig := u.BankKey.Sign(msg)
	out["pki.sign_ns"] = r.timeOp(500, func(int) { u.BankKey.Sign(msg) })
	out["pki.verify_ns"] = r.timeOp(500, func(int) { pki.Verify(u.BankKey.Public(), msg, sig) })

	reqs := make([]bank.TransferRequest, 5*r.n(500))
	for i := range reqs {
		reqs[i] = bank.TransferRequest{From: u.Account, To: "broker", Amount: bank.Credit, Nonce: fmt.Sprintf("replay-%06d", i)}
		reqs[i].Sig = u.BankKey.Sign(reqs[i].SigningBytes())
	}
	out["bank.transfer_ns"] = r.timeOp(500, func(i int) { b.Transfer(reqs[i]) })
	if _, err := b.CreateSubAccount(u.Account, "replay-move", u.BankKey.Public()); err == nil {
		sub := u.Account + "/replay-move"
		out["bank.move_ns"] = r.timeOp(2000, func(i int) {
			if i%2 == 0 {
				b.MoveInternal(u.BankKey, u.Account, sub, bank.Credit, bank.EntryTransfer, "")
			} else {
				b.MoveInternal(u.BankKey, sub, u.Account, bank.Credit, bank.EntryRefund, "")
			}
		})
	}
}

// replayBroker covers the prediction suite as broker-predict drives it: a
// pick over p.Partitions candidates with p.Window samples of history each.
func (r replayer) broker(out map[string]float64, p experiment.StrategiesParams) {
	history := make([]float64, p.Window)
	for i := range history {
		history[i] = 1.0/3600 + 1e-5*float64(i%37) + 1e-6*float64(i%11)
	}
	cands := make([]strategy.Candidate, p.Partitions)
	for i := range cands {
		cands[i] = strategy.Candidate{ID: fmt.Sprintf("p%d", i), CurrentPrice: history[len(history)-1],
			History: history, Step: auction.DefaultInterval}
	}
	if s, err := strategy.New(strategy.PredictedMean, strategy.Config{Horizon: p.Horizon, Predictor: p.Predictor, Window: p.Window}); err == nil {
		out["strategy.pick_ns"] = r.timeOp(20, func(int) { s.Pick(cands) })
	}
	pc := predict.PredictorConfig{Window: p.Window, Step: auction.DefaultInterval}
	if bp, err := predict.NewPredictor(p.Predictor, pc); err == nil {
		for i, v := range history {
			bp.Observe(replayEpoch.Add(time.Duration(i+1)*auction.DefaultInterval), v)
		}
		out["predict.forecast_ns"] = r.timeOp(100, func(int) { bp.Predict(p.Horizon) })
	}
	if sp, err := predict.NewStreaming(predict.StreamingAR, pc); err == nil {
		out["predict.observe_ns"] = r.timeOp(5000, func(i int) {
			sp.Observe(history[i%len(history)], replayEpoch.Add(time.Duration(i+1)*auction.DefaultInterval))
		})
	}
	r.auction(out, 2)
}

// replayPlane covers the bid plane: ledger moves within and across bank
// shards, and the auctioneer at the plane's steady book depth.
func (r replayer) plane(out map[string]float64, hosts int) {
	w, err := buildPlaneWorld(planeSize{hosts: 16, users: 64}, 0, 1_000_000*bank.Credit)
	if err != nil {
		return
	}
	// Find one same-shard and one cross-shard pair among the user accounts.
	var local, cross [2]bank.AccountID
	for _, a := range w.users[1:] {
		if same := w.sbank.ShardFor(a) == w.sbank.ShardFor(w.users[0]); same && local[0] == "" {
			local = [2]bank.AccountID{w.users[0], a}
		} else if !same && cross[0] == "" {
			cross = [2]bank.AccountID{w.users[0], a}
		}
	}
	pingPong := func(pair [2]bank.AccountID) func(int) {
		return func(i int) { w.sbank.MoveInternal(w.op, pair[i%2], pair[1-i%2], bank.Credit, bank.EntryTransfer, "") }
	}
	if local[0] != "" {
		out["marketplane.local_move_ns"] = r.timeOp(2000, pingPong(local))
	}
	if cross[0] != "" {
		out["marketplane.twophase_ns"] = r.timeOp(2000, pingPong(cross))
	}
	// bidsPerTick bids live planeLifetime ticks, spread over the hosts.
	r.auction(out, max(1, planeFull.bidsPerTick*planeLifetime/hosts))
}

// nullResponse is the cheapest ResponseWriter, for timing encoders alone.
type nullResponse struct{ h http.Header }

func (n nullResponse) Header() http.Header         { return n.h }
func (n nullResponse) Write(p []byte) (int, error) { return len(p), nil }
func (n nullResponse) WriteHeader(int)             {}

// replayBank covers the transfer path inside one process: codec, service,
// mux, ledger, and (for the durable workload) the write-ahead log.
func (r replayer) bank(out map[string]float64, durableStore bool, dir string) {
	var seed [32]byte
	copy(seed[:], "bench-replay-bank")
	ca, err := pki.NewDeterministicCA("/CN=BenchReplayCA", seed)
	if err != nil {
		return
	}
	bankID, err1 := ca.IssueDeterministic("/CN=Bank", seed)
	owner, err2 := ca.IssueDeterministic("/CN=Owner", seed)
	if err1 != nil || err2 != nil {
		return
	}
	newBank := func(st *durable.Store) *bank.Bank {
		b := bank.New(bankID, sim.WallClock{}, bank.WithTracer(quietTracer()))
		if st != nil { // before first use; 1<<30: no snapshot during the replay
			if _, err := b.AttachDurability(st, 1<<30); err != nil {
				return nil
			}
		}
		for _, id := range []bank.AccountID{"a000", "broker"} {
			b.CreateAccount(id, owner.Public())
			b.Deposit(id, bankDeposit, "replay")
		}
		return b
	}
	user := &experiment.GridUser{Name: "a000", BankKey: owner, Account: "a000"}
	b := newBank(nil)
	r.bankCore(out, b, user)

	// The very body the load generator sends.
	bodies := make([][]byte, 6*r.n(300))
	for i := range bodies {
		req := bank.TransferRequest{From: "a000", To: "broker", Amount: bank.Credit, Nonce: fmt.Sprintf("http-%08d", i)}
		req.Sig = owner.Sign(req.SigningBytes())
		bodies[i], _ = json.Marshal(httpapi.TransferWire{From: "a000", To: "broker", Amount: req.Amount.String(),
			Nonce: req.Nonce, Sig: base64.RawURLEncoding.EncodeToString(req.Sig)})
	}
	request := func(i int) *http.Request {
		return httptest.NewRequest("POST", "/transfers", bytes.NewReader(bodies[i]))
	}
	out["httpapi.read_json_ns"] = r.timeOp(300, func(i int) {
		var tw httpapi.TransferWire
		httpapi.ReadJSON(request(i), &tw)
	})
	receipt := httpapi.ReceiptWire{TransferID: "t-00000001", From: "a000", To: "broker", Amount: "1", At: time.Now(),
		BankSig: base64.RawURLEncoding.EncodeToString(make([]byte, 64))}
	null := nullResponse{http.Header{}}
	out["httpapi.write_json_ns"] = r.timeOp(300, func(int) { httpapi.WriteJSON(null, receipt) })

	svc := httpapi.NewBankService(b)
	next := 0 // bodies carry unique nonces; each may be served once
	serve := func(h http.Handler) func(int) {
		return func(int) {
			h.ServeHTTP(httptest.NewRecorder(), request(next))
			next++
		}
	}
	out["httpapi.serve_ns"] = r.timeOp(300, serve(svc))
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < r.n(300); i++ {
		serve(svc)(i)
	}
	runtime.ReadMemStats(&ms1)
	out["httpapi.serve_allocs"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(r.n(300))
	// The mux alone, around a handler that does nothing: a difference of two
	// signature-bound timings would drown it.
	mux := httpapi.ObservedMux("bench-replay", http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	out["httpapi.mux_ns"] = r.timeOp(300, func(i int) { mux.ServeHTTP(httptest.NewRecorder(), request(i)) })

	if !durableStore {
		return
	}
	walDir, err := os.MkdirTemp(dir, "replay-wal-")
	if err != nil {
		return
	}
	st, err := durable.Open(walDir, durable.Options{Sync: durable.SyncAlways})
	if err != nil {
		return
	}
	defer st.Close()
	db := newBank(st)
	if db == nil {
		return
	}
	reqs := make([]bank.TransferRequest, 5*r.n(100))
	for i := range reqs {
		reqs[i] = bank.TransferRequest{From: "a000", To: "broker", Amount: bank.Credit, Nonce: fmt.Sprintf("wal-%06d", i)}
		reqs[i].Sig = owner.Sign(reqs[i].SigningBytes())
	}
	out["bank.transfer_durable_ns"] = r.timeOp(100, func(i int) { db.Transfer(reqs[i]) })
	record := make([]byte, 160) // about one transfer record
	out["durable.append_ns"] = r.timeOp(100, func(int) { st.Append(record) })
}
