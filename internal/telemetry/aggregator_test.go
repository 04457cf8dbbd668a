package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"tycoongrid/internal/httpapi"
	"tycoongrid/internal/metrics"
	"tycoongrid/internal/tracing"
	"tycoongrid/internal/tsdb"
)

// testPeer is a daemon as the aggregator sees one: a real Plane over a
// private registry and an injected clock, served through ObservedMux. Each
// tick is one scrape interval of steady traffic followed by a self-scrape;
// the clock moves only between ticks, so the collector and the evaluator of
// one Collect read the same instant.
type testPeer struct {
	srv     *httptest.Server
	mu      sync.Mutex
	mux     http.Handler // swapped by restart
	windows []string     // the window of every history request, in order
	clock   *stepClock   // moved by tick alone; keeps running across a restart, like wall time

	reg    *metrics.Registry
	plane  *Plane
	clears *metrics.Counter
	lat    *metrics.Histogram
}

func newTestPeer(t *testing.T, start time.Time) *testPeer {
	p := &testPeer{clock: &stepClock{at: start}}
	p.boot()
	p.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		p.mu.Lock()
		mux := p.mux
		p.windows = append(p.windows, r.URL.Query().Get("window"))
		p.mu.Unlock()
		mux.ServeHTTP(w, r)
	}))
	t.Cleanup(p.srv.Close)
	return p
}

// boot gives the peer a fresh process image: empty registry, empty tsdb.
func (p *testPeer) boot() {
	p.reg = metrics.NewRegistry()
	p.plane = NewPlane(Config{Service: "peer", Registry: p.reg, Now: p.clock.now})
	p.clears = p.reg.Counter("clears_total", "clears")
	p.lat = p.reg.Histogram("lat_seconds", "lat", []float64{0.01, 0.1})
	p.serve(httpapi.ObservedMux("peer", http.NotFoundHandler(), p.plane.MuxOptions()...))
}

func (p *testPeer) serve(h http.Handler) {
	p.mu.Lock()
	p.mux = h
	p.mu.Unlock()
}

// tick is one 10 s interval: +100 clears (10/s), the price gauge at 1.5, and
// ten latency observations (1/s) — eight in (0, .01], two in (.01, .1], so
// the interval's mean is 0.014 and its p99 interpolates to
// .01 + (.1-.01)*(1.9/2) = .0955.
func (p *testPeer) tick() {
	p.clock.at = p.clock.at.Add(10 * time.Second)
	p.clears.Add(100)
	p.reg.Gauge("spot_price", "price").Set(1.5)
	for i := 0; i < 8; i++ {
		p.lat.Observe(0.005)
	}
	p.lat.Observe(0.05)
	p.lat.Observe(0.05)
	p.plane.Collect()
}

func newTestAggregator(clock *stepClock, reg *metrics.Registry, peers ...Peer) *Aggregator {
	return NewAggregator(AggregatorConfig{
		Peers:    peers,
		Registry: reg,
		Now:      clock.now,
		Client:   &http.Client{Timeout: 2 * time.Second},
	})
}

func latest(t *testing.T, db *tsdb.DB, name string) float64 {
	t.Helper()
	s, ok := db.Lookup(name)
	if !ok {
		t.Fatalf("missing series %s; have %v", name, db.Names())
	}
	p, ok := s.Latest()
	if !ok {
		t.Fatalf("series %s is empty", name)
	}
	return p.V
}

// requireFleetEqualsPeer is the differential oracle: under "<peer>/" the
// fleet store holds exactly the peer's own series, point for point.
func requireFleetEqualsPeer(t *testing.T, fleet *tsdb.DB, name string, own *tsdb.DB) {
	t.Helper()
	if got, want := fleet.Match(name+"/*"), own.Names(); len(got) != len(want) {
		t.Fatalf("%s: fleet has %d series, the peer %d\nfleet: %v\npeer: %v", name, len(got), len(want), got, want)
	}
	for _, series := range own.Names() {
		s, _ := own.Lookup(series)
		want := s.Since(0)
		f, ok := fleet.Lookup(name + "/" + series)
		if !ok {
			t.Fatalf("%s: fleet lacks %s", name, series)
		}
		got := f.Since(0)
		if len(got) != len(want) {
			t.Fatalf("%s/%s: fleet has %d points, the peer %d", name, series, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s/%s[%d]: fleet %+v, peer %+v", name, series, i, got[i], want[i])
			}
		}
		if f.Dropped() != 0 {
			t.Fatalf("%s/%s: %d points dropped; overlapping scrapes must skip, not drop", name, series, f.Dropped())
		}
	}
}

// TestFleetEqualsPeerPointForPoint: the aggregator derives nothing. After any
// number of sweeps — some with no new points, some several intervals apart —
// every fleet series is a copy of the peer's own, timestamps included, and so
// carries the values the peer's collector derived.
func TestFleetEqualsPeerPointForPoint(t *testing.T) {
	a := newTestPeer(t, time.Unix(7000, 0))
	b := newTestPeer(t, time.Unix(7003, 0))
	// Two readings a sweep: the aggregator's clock runs 30 s a sweep, as
	// fast as the peers' at their busiest.
	clock := &stepClock{at: time.Unix(7000, 0), step: 15 * time.Second}
	agg := newTestAggregator(clock, metrics.NewRegistry(),
		Peer{Name: "auction-a", BaseURL: a.srv.URL}, Peer{Name: "auction-b", BaseURL: b.srv.URL})

	for sweep, ticks := range []int{1, 1, 0, 3, 1, 0, 2} {
		for i := 0; i < ticks; i++ {
			a.tick()
			b.tick()
		}
		if up := agg.ScrapeOnce(context.Background()); up != 2 {
			t.Fatalf("sweep %d: up = %d, want 2", sweep, up)
		}
		requireFleetEqualsPeer(t, agg.DB(), "auction-a", a.plane.DB())
		requireFleetEqualsPeer(t, agg.DB(), "auction-b", b.plane.DB())
	}

	// The first scrape asks for all the peer has, each later one for the time
	// since the scrape before it began plus the slack.
	if got := strings.Join(a.windows, " "); got != "24h0m0s 1m30s 1m30s 1m30s 1m30s 1m30s 1m30s" {
		t.Fatalf("windows asked of auction-a: %s", got)
	}

	// What was copied is what the collector derived.
	for _, peer := range []string{"auction-a/", "auction-b/"} {
		if v := latest(t, agg.DB(), peer+"clears_total"+tsdb.SuffixRate); v != 10 {
			t.Fatalf("%sclears rate = %g, want 10/s", peer, v)
		}
		if v := latest(t, agg.DB(), peer+"spot_price"); v != 1.5 {
			t.Fatalf("%sspot = %g, want 1.5", peer, v)
		}
		if v := latest(t, agg.DB(), peer+"lat_seconds"+tsdb.SuffixRate); v != 1 {
			t.Fatalf("%shistogram rate = %g, want 1/s", peer, v)
		}
		if got := agg.DB().Match(peer + "lat_seconds:*"); len(got) != 2 {
			t.Fatalf("%shistogram series %v, want its :p99 and :rate", peer, got)
		}
		if v := latest(t, agg.DB(), peer+"lat_seconds"+tsdb.SuffixP99); v < 0.095 || v > 0.096 {
			t.Fatalf("%sfleet p99 = %g, want ~0.0955", peer, v)
		}
	}
	// Fleet points carry the peer's timestamps, not the sweep's: b's clock
	// runs 3 s off a's and the two never share an instant.
	pa, _ := agg.DB().Lookup("auction-a/spot_price")
	pb, _ := agg.DB().Lookup("auction-b/spot_price")
	la, _ := pa.Latest()
	lb, _ := pb.Latest()
	if lb.T-la.T != (3 * time.Second).Nanoseconds() {
		t.Fatalf("peer clocks 3s apart, fleet points %v apart", time.Duration(lb.T-la.T))
	}

	rep := agg.Report()
	if len(rep.Peers) != 2 || !rep.Peers[0].Up || !rep.Peers[1].Up {
		t.Fatalf("report peers = %+v", rep.Peers)
	}
	if len(rep.Series) == 0 {
		t.Fatal("report lists no series")
	}
	if rep.Peers[0].Samples == 0 {
		t.Fatalf("last sweep copied two intervals but reports no samples: %+v", rep.Peers[0])
	}
}

// TestFleetIngestsEveryPage: a peer with more series than one page holds, and
// more points than one body may carry, is copied completely.
func TestFleetIngestsEveryPage(t *testing.T) {
	own := tsdb.NewDB(0)
	base := time.Unix(9000, 0).UnixNano()
	for i := 0; i < 150; i++ {
		own.Series(fmt.Sprintf("gauge_%03d", i)).AppendNanos(base, float64(i))
	}
	// Three full rings: a page ends early on maxHistoryPoints, well before
	// the 1 MiB a client reads.
	for _, name := range []string{"full_a", "full_b", "full_c"} {
		s := own.Series(name)
		for i := 0; i < tsdb.DefaultCapacity; i++ {
			s.AppendNanos(base+int64(i), 0.0123456789*float64(i))
		}
	}
	pages := 0
	h := HistoryHandler(own, nil)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		pages++
		h.ServeHTTP(w, r)
	}))
	defer srv.Close()

	clock := &stepClock{at: time.Unix(9000, 0), step: time.Second}
	agg := newTestAggregator(clock, metrics.NewRegistry(), Peer{Name: "big", BaseURL: srv.URL})
	if up := agg.ScrapeOnce(context.Background()); up != 1 {
		t.Fatalf("up = %d: %+v", up, agg.Status())
	}
	requireFleetEqualsPeer(t, agg.DB(), "big", own)
	if pages < 4 {
		t.Fatalf("153 series and 12 438 points arrived in %d pages", pages)
	}
	if st := agg.Status()[0]; st.Samples != 150+3*tsdb.DefaultCapacity {
		t.Fatalf("samples = %d", st.Samples)
	}
}

// TestFleetSurvivesPeerRestart: a peer that comes back with an empty tsdb
// and counters at zero leaves what the fleet already copied in place and
// carries on — its collector seeds before it rates, so no negative or
// spiking rate reaches the fleet.
func TestFleetSurvivesPeerRestart(t *testing.T) {
	p := newTestPeer(t, time.Unix(8000, 0))
	clock := &stepClock{at: time.Unix(8000, 0), step: 5 * time.Second}
	agg := newTestAggregator(clock, metrics.NewRegistry(), Peer{Name: "live", BaseURL: p.srv.URL})
	for i := 0; i < 4; i++ {
		p.tick()
		agg.ScrapeOnce(context.Background())
	}
	rate, _ := agg.DB().Lookup("live/clears_total" + tsdb.SuffixRate)
	before := rate.Since(0)
	if len(before) != 3 {
		t.Fatalf("4 ticks must leave 3 rate points, got %d", len(before))
	}

	p.boot()
	for i := 0; i < 3; i++ {
		p.tick()
		agg.ScrapeOnce(context.Background())
	}
	after := rate.Since(0)
	if len(after) != len(before)+2 {
		t.Fatalf("3 ticks after the restart must add 2 rate points: %d -> %d", len(before), len(after))
	}
	for i, pt := range after {
		if i < len(before) && pt != before[i] {
			t.Fatalf("pre-restart point %d changed: %+v -> %+v", i, before[i], pt)
		}
		if pt.V != 10 {
			t.Fatalf("rate point %d = %g across a restart, want the steady 10/s", i, pt.V)
		}
	}
	if p99, _ := agg.DB().Lookup("live/lat_seconds" + tsdb.SuffixP99); p99.Len() != 7 {
		t.Fatalf("p99 points = %d, want one per tick on both sides of the restart", p99.Len())
	}
}

// TestAggregatorPeerDownAndRecovery kills a peer mid-flight: the sweep must
// mark it down without disturbing the other peer's series, and when it comes
// back the fleet picks up everything the peer recorded while unreachable.
func TestAggregatorPeerDownAndRecovery(t *testing.T) {
	live := newTestPeer(t, time.Unix(8000, 0))
	// Away answers 404 rather than 5xx or nothing, so that the client's
	// breaker (30 s cool-down) is closed when it comes back.
	away := newTestPeer(t, time.Unix(8000, 0))
	awayMux := away.mux
	away.serve(http.NotFoundHandler())

	var deadURL string
	{
		dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
		deadURL = dead.URL
		dead.Close() // connection refused from here on
	}

	clock := &stepClock{at: time.Unix(8000, 0), step: 5 * time.Second}
	reg := metrics.NewRegistry()
	agg := newTestAggregator(clock, reg,
		Peer{Name: "live", BaseURL: live.srv.URL},
		Peer{Name: "dead", BaseURL: deadURL},
		Peer{Name: "away", BaseURL: away.srv.URL})

	for i := 0; i < 3; i++ {
		live.tick()
		away.tick()
		if up := agg.ScrapeOnce(context.Background()); up != 1 {
			t.Fatalf("up = %d, want 1", up)
		}
	}

	sts := agg.Status()
	if sts[0].Name != "away" || sts[0].Up || sts[0].LastError == "" {
		t.Fatalf("away peer status = %+v", sts[0])
	}
	if sts[1].Name != "dead" || sts[1].Up || sts[1].LastError == "" {
		t.Fatalf("dead peer status = %+v", sts[1])
	}
	if sts[2].Name != "live" || !sts[2].Up {
		t.Fatalf("live peer status = %+v", sts[2])
	}
	requireFleetEqualsPeer(t, agg.DB(), "live", live.plane.DB())
	if len(agg.DB().Match("dead/*"))+len(agg.DB().Match("away/*")) != 0 {
		t.Fatalf("down peers left series: %v", agg.DB().Names())
	}
	if counter(reg, `telemetry_scrape_errors_total{peer="dead"}`) == 0 {
		t.Fatal("scrape errors not counted")
	}

	// Back up: one sweep copies the whole outage, and no rate is negative.
	away.serve(awayMux)
	if up := agg.ScrapeOnce(context.Background()); up != 2 {
		t.Fatalf("up = %d after recovery, want 2: %+v", up, agg.Status())
	}
	requireFleetEqualsPeer(t, agg.DB(), "away", away.plane.DB())
	requireFleetEqualsPeer(t, agg.DB(), "live", live.plane.DB())
	rate, _ := agg.DB().Lookup("away/clears_total" + tsdb.SuffixRate)
	for _, p := range rate.Since(0) {
		if p.V < 0 {
			t.Fatalf("negative rate %g", p.V)
		}
	}
}

// TestExemplarRoundTrip follows one slow request from the bucket it landed in
// to the span tree that explains it: ObserveExemplar on the peer, the trace
// id at /fleet with the right peer and family, exactly once however often it
// is scraped, and GET /debug/traces/{id} on that peer resolving it.
func TestExemplarRoundTrip(t *testing.T) {
	p := newTestPeer(t, time.Unix(6000, 0))
	span, ctx := tracing.Default().StartSpan(context.Background(), "bank.transfer")
	fsync, _ := tracing.Default().StartSpan(ctx, "wal.fsync")
	fsync.End()
	span.End()
	traceID := span.Context().TraceID.String()

	slow := p.reg.HistogramVec("bank_transfer_seconds", "transfer latency", []float64{0.01, 0.1, 1}, "outcome").With("ok")
	slow.Observe(0.002)
	slow.ObserveExemplar(0.7, traceID)
	p.tick()

	clock := &stepClock{at: time.Unix(6000, 0), step: 5 * time.Second}
	agg := newTestAggregator(clock, metrics.NewRegistry(), Peer{Name: "bankd", BaseURL: p.srv.URL})
	fleet := httptest.NewServer(httpapi.ObservedMux("slsd", http.NotFoundHandler(), agg.MuxOptions()...))
	defer fleet.Close()
	for i := 0; i < 3; i++ {
		agg.ScrapeOnce(context.Background())
		p.tick()
	}

	var rep FleetReport
	getInto(t, fleet.URL+"/fleet", &rep)
	if len(rep.Exemplars) != 1 {
		t.Fatalf("want the one exemplar once after three scrapes, got %+v", rep.Exemplars)
	}
	ex := rep.Exemplars[0]
	if ex.Peer != "bankd" || ex.Family != `bank_transfer_seconds{outcome="ok"}` || ex.TraceID != traceID || ex.Value != 0.7 || ex.At.IsZero() {
		t.Fatalf("exemplar = %+v", ex)
	}

	var peerURL string
	for _, st := range rep.Peers {
		if st.Name == ex.Peer {
			peerURL = st.BaseURL
		}
	}
	resp, err := http.Get(peerURL + "/debug/traces/" + ex.TraceID + "?format=tree")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	tree, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(tree), "bank.transfer") || !strings.Contains(string(tree), "wal.fsync") {
		t.Fatalf("trace %s on %s -> %d:\n%s", ex.TraceID, peerURL, resp.StatusCode, tree)
	}
}

// counter reads one counter child out of a snapshot of reg by its
// metrics.SampleName; an absent child reads 0.
func counter(reg *metrics.Registry, sample string) uint64 {
	for _, c := range reg.Snapshot().Counters {
		if metrics.SampleName(c.Name, c.Labels) == sample {
			return c.Value
		}
	}
	return 0
}

func getInto(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s -> %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}
