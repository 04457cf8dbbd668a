package arc

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"tycoongrid/internal/agent"
	"tycoongrid/internal/bank"
	"tycoongrid/internal/grid"
	"tycoongrid/internal/pki"
	"tycoongrid/internal/sim"
	"tycoongrid/internal/strategy"
	"tycoongrid/internal/token"
)

func TestMetaDefaultStrategyIsCurrentPrice(t *testing.T) {
	w := newMetaWorld(t)
	if got := w.meta.Strategy(); got != strategy.CurrentPrice {
		t.Errorf("default strategy = %q", got)
	}
	w.meta.SetStrategy(nil, 0)
	if got := w.meta.Strategy(); got != strategy.CurrentPrice {
		t.Errorf("nil reset strategy = %q", got)
	}
}

// TestMetaTieBreakRoundRobin is the regression test for the original pick():
// with both partitions idle at the reserve price, strict less-than comparison
// sent every job to replica 0 forever. Ties must rotate deterministically.
func TestMetaTieBreakRoundRobin(t *testing.T) {
	w := newMetaWorld(t)
	w.eng.RunFor(time.Minute) // identical idle partitions -> equal prices
	var seq []int
	for n := 0; n < 6; n++ {
		r, _ := w.meta.pick()
		for i, rep := range w.meta.replicas {
			if rep == r {
				seq = append(seq, i)
			}
		}
	}
	want := []int{0, 1, 0, 1, 0, 1}
	if len(seq) != len(want) {
		t.Fatalf("pick sequence = %v", seq)
	}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("tied picks = %v, want alternating %v", seq, want)
		}
	}
}

func TestMetaStrategyInjectionAndPredictionScoring(t *testing.T) {
	w := newMetaWorld(t)
	s, err := strategy.New(strategy.PredictedMean, strategy.Config{})
	if err != nil {
		t.Fatal(err)
	}
	horizon := 10 * time.Minute
	w.meta.SetStrategy(s, horizon)
	if w.meta.Strategy() != strategy.PredictedMean {
		t.Fatalf("strategy = %q", w.meta.Strategy())
	}
	w.eng.RunFor(30 * time.Minute) // accrue price history on both partitions

	// Equal histories tie; the first tied pick goes to replica 0, so the
	// token pays broker-0 (a wrong payee would be rejected at verification).
	xrsl := fmt.Sprintf("&(executable=x)(count=2)(cputime=5)(walltime=3600)(transfertoken=%s)",
		w.tokenFor(t, w.brokers[0], 50))
	gj, err := w.meta.Submit(xrsl, nil)
	if err != nil {
		t.Fatal(err)
	}

	tl, err := w.meta.Timeline(gj.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !hasEvent(tl, "matchmade", "strategy", strategy.PredictedMean) {
		t.Errorf("no matchmade event for the strategy: %+v", tl.Events)
	}

	if st := w.meta.PredictionStats(); st.Scored != 0 {
		t.Fatalf("scored before horizon: %+v", st)
	}
	w.eng.RunFor(horizon + time.Minute)
	st := w.meta.PredictionStats()
	if st.Scored != 1 {
		t.Fatalf("scored = %d, want 1", st.Scored)
	}
	if st.MeanAbsError < 0 || st.MaxAbsError < st.MeanAbsError {
		t.Errorf("stats inconsistent: %+v", st)
	}
	tl, err = w.meta.Timeline(gj.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !hasEvent(tl, "prediction-scored", "strategy", strategy.PredictedMean) {
		t.Errorf("no prediction-scored event: %+v", tl.Events)
	}
}

func TestMetaCancelAndTimelineRouting(t *testing.T) {
	w := newMetaWorld(t)
	xrsl := fmt.Sprintf("&(executable=x)(count=1)(cputime=600)(walltime=7200)(transfertoken=%s)",
		w.tokenFor(t, w.brokers[1], 30))
	gj, err := w.meta.replicas[1].Submit(xrsl, nil) // bypass the meta index
	if err != nil {
		t.Fatal(err)
	}
	w.eng.RunFor(time.Minute)
	if _, err := w.meta.Timeline(gj.ID); err != nil {
		t.Errorf("timeline: %v", err)
	}
	if err := w.meta.Cancel(gj.ID); err != nil {
		t.Errorf("cancel: %v", err)
	}
	got, err := w.meta.Job(gj.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateKilled {
		t.Errorf("state after cancel = %v", got.State)
	}
	if err := w.meta.Cancel("ghost"); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("ghost cancel: %v", err)
	}
	if _, err := w.meta.Timeline("ghost"); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("ghost timeline: %v", err)
	}
}

func hasEvent(tl Timeline, name, attrKey, attrVal string) bool {
	for _, ev := range tl.Events {
		if ev.Name != name {
			continue
		}
		for _, a := range ev.Attrs {
			if a.Key == attrKey && strings.Contains(a.Value, attrVal) {
				return true
			}
		}
	}
	return false
}

// benchMetaWorld mirrors newMetaWorld for benchmarks (testing.TB fixture).
func benchMetaWorld(tb testing.TB) *metaWorld {
	tb.Helper()
	eng := sim.NewEngine()
	ca, err := pki.NewDeterministicCA("/O=Grid/CN=CA", [32]byte{1}, pki.WithTimeSource(eng.Now))
	if err != nil {
		tb.Fatal(err)
	}
	bankID, _ := ca.IssueDeterministic("/CN=Bank", [32]byte{2})
	user, _ := ca.IssueDeterministic("/O=Grid/CN=Alice", [32]byte{3})
	userBank, _ := ca.IssueDeterministic("/CN=AliceBank", [32]byte{4})
	b := bank.New(bankID, eng)
	if _, err := b.CreateAccount("alice", userBank.Public()); err != nil {
		tb.Fatal(err)
	}
	if err := b.Deposit("alice", 1000000*bank.Credit, ""); err != nil {
		tb.Fatal(err)
	}
	specs := make([]grid.HostSpec, 4)
	for i := range specs {
		specs[i] = grid.HostSpec{ID: fmt.Sprintf("h%02d", i), CPUs: 2, CPUMHz: 2800, MaxVMs: 300}
	}
	cluster, err := grid.New(eng, grid.Config{Hosts: specs})
	if err != nil {
		tb.Fatal(err)
	}
	if err := cluster.Start(); err != nil {
		tb.Fatal(err)
	}
	partitions := [][]string{{"h00", "h01"}, {"h02", "h03"}}
	var managers []*Manager
	var brokers []string
	for i, part := range partitions {
		brokerName := fmt.Sprintf("broker-%d", i)
		brokerID, _ := ca.IssueDeterministic(pki.DN("/CN="+brokerName), [32]byte{byte(10 + i)})
		if _, err := b.CreateAccount(bank.AccountID(brokerName), brokerID.Public()); err != nil {
			tb.Fatal(err)
		}
		v, err := token.NewVerifier(b.PublicKey(), ca.Certificate(), bank.AccountID(brokerName), nil)
		if err != nil {
			tb.Fatal(err)
		}
		ag, err := agent.New(agent.Config{
			Cluster: cluster, Bank: b, Identity: brokerID,
			Account: bank.AccountID(brokerName), Verifier: v,
			Hosts: part,
		})
		if err != nil {
			tb.Fatal(err)
		}
		mgr, err := New(Config{ClusterName: brokerName, Agent: ag})
		if err != nil {
			tb.Fatal(err)
		}
		managers = append(managers, mgr)
		brokers = append(brokers, brokerName)
	}
	meta, err := NewMeta(managers...)
	if err != nil {
		tb.Fatal(err)
	}
	return &metaWorld{eng: eng, bank: b, meta: meta, user: user, userBank: userBank, brokers: brokers}
}

func (w *metaWorld) benchToken(tb testing.TB, broker string, credits float64) string {
	tb.Helper()
	w.nonce++
	req := bank.TransferRequest{From: "alice", To: bank.AccountID(broker),
		Amount: bank.MustCredits(credits), Nonce: fmt.Sprintf("m%04d", w.nonce)}
	req.Sig = w.userBank.Sign(req.SigningBytes())
	r, err := w.bank.Transfer(req)
	if err != nil {
		tb.Fatal(err)
	}
	s, err := token.Encode(token.Attach(r, w.user))
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// BenchmarkMetaJobLookup measures Meta.Job with a populated scheduler: the
// jobID->replica index makes lookups O(1) instead of a scan over every
// replica's job table.
func BenchmarkMetaJobLookup(b *testing.B) {
	w := benchMetaWorld(b)
	const jobs = 128
	ids := make([]string, 0, jobs)
	for i := 0; i < jobs; i++ {
		rep := i % 2
		xrsl := fmt.Sprintf("&(executable=x)(count=1)(cputime=60)(walltime=86400)(transfertoken=%s)",
			w.benchToken(b, w.brokers[rep], 30))
		gj, err := w.meta.replicas[rep].Submit(xrsl, nil)
		if err != nil {
			b.Fatal(err)
		}
		ids = append(ids, gj.ID)
	}
	// Warm the index as the HTTP layer would on first access.
	for _, id := range ids {
		if _, err := w.meta.Job(id); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.meta.Job(ids[i%jobs]); err != nil {
			b.Fatal(err)
		}
	}
}

// historySpy wraps a strategy and watches what it does with the candidates
// the meta-scheduler hands it: whether each carries a forecast handle, and
// whether the strategy pulled any candidate's history.
type historySpy struct {
	strategy.Strategy
	picks, noHandle, histReads int
}

func (s *historySpy) Pick(cands []strategy.Candidate) (strategy.Pick, error) {
	s.picks++
	for i := range cands {
		if cands[i].Forecast == nil {
			s.noHandle++
		}
		hist := cands[i].Hist
		cands[i].Hist = func() []float64 { s.histReads++; return hist() }
	}
	return s.Strategy.Pick(cands)
}

// TestMetaPickReadsHandlesNotHistory pins the one forecast path at the
// scheduler: under a prediction strategy a pick reads every replica's
// forecast handle, pulls no price history (PriceHistory copies and averages
// the partition's rings), and allocates a small fixed number of objects. The
// portfolio strategy, which needs the series, still gets it through Hist.
func TestMetaPickReadsHandlesNotHistory(t *testing.T) {
	w := newMetaWorld(t)
	w.eng.RunFor(30 * time.Minute)
	for _, name := range []string{strategy.PredictedMean, strategy.PredictedQuantile} {
		inner, err := strategy.New(name, strategy.Config{})
		if err != nil {
			t.Fatal(err)
		}
		spy := &historySpy{Strategy: inner}
		w.meta.SetStrategy(spy, 0)
		_, p := w.meta.pick()
		if spy.picks != 1 || spy.noHandle != 0 {
			t.Errorf("%s: %d picks, %d candidates without a forecast handle", name, spy.picks, spy.noHandle)
		}
		if spy.histReads != 0 {
			t.Errorf("%s: pick read %d price histories, want 0", name, spy.histReads)
		}
		// 30 min of idle reserve-price clears: the forecast is the reserve
		// price, from the model and not the current-price fallback.
		r0 := w.meta.replicas[0].cfg.Agent
		fc, err := r0.ForecastHandle()(strategy.DefaultHorizon)
		if err != nil {
			t.Fatalf("%s: handle not ready after 180 clears: %v", name, err)
		}
		if name == strategy.PredictedMean && p.Predicted != fc.Mean {
			t.Errorf("%s: predicted %v, handle mean %v", name, p.Predicted, fc.Mean)
		}

		w.meta.SetStrategy(inner, 0)
		allocs := testing.AllocsPerRun(100, func() { w.meta.pick() })
		// The candidate copy, the score slice, and the tie slice grown once
		// (the idle partitions tie). No clear falls between these picks; the
		// first pick after one also refits each host's model, which is
		// matrix.SolveToeplitz's 13 small slices per host and still no
		// history.
		if allocs > 4 {
			t.Errorf("%s: pick allocates %.1f objects, want <= 4", name, allocs)
		}
	}

	pf, err := strategy.New(strategy.Portfolio, strategy.Config{})
	if err != nil {
		t.Fatal(err)
	}
	spy := &historySpy{Strategy: pf}
	w.meta.SetStrategy(spy, 0)
	w.meta.pick()
	if spy.histReads != len(w.meta.replicas) {
		t.Errorf("portfolio read %d histories, want one per replica (%d)", spy.histReads, len(w.meta.replicas))
	}
}
