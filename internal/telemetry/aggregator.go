package telemetry

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"

	"tycoongrid/internal/httpapi"
	"tycoongrid/internal/metrics"
	"tycoongrid/internal/tsdb"
)

// Peer names one scrape target.
type Peer struct {
	Name    string `json:"name"`
	BaseURL string `json:"url"`
}

// PeerStatus is a peer's health as seen from the aggregator.
type PeerStatus struct {
	Peer
	Up         bool      `json:"up"`
	LastScrape time.Time `json:"last_scrape,omitempty"`
	LastError  string    `json:"last_error,omitempty"`
	// Samples counts the points the last scrape added to the fleet store.
	Samples int `json:"samples"`

	// since is when the last scrape that succeeded began; the next one asks
	// for everything from then on.
	since time.Time
}

// FleetExemplar is one exemplar surfaced from a peer scrape: a concrete
// traced request pinned to the latency family it landed in, so "the fleet
// p99 moved" links to "this exact trace is why".
type FleetExemplar struct {
	Peer    string    `json:"peer"`
	Family  string    `json:"family"`
	TraceID string    `json:"trace_id"`
	Value   float64   `json:"value"`
	At      time.Time `json:"at"`
}

// maxFleetExemplars bounds the aggregator's exemplar ring.
const maxFleetExemplars = 64

// maxScrapePages bounds one scrape of one peer. A peer is outside this
// process: one that answers "truncated" forever must not hold a sweep.
const maxScrapePages = 64

// scrapeSlack is how much further back a scrape asks than to when the last
// successful one began. A history window ends at the newest point the peer
// holds when it answers, so the slack has to outlast the scrape itself,
// retries and back-off included; one stalled for longer leaves the fleet
// series a gap, as a missed scrape would.
const scrapeSlack = time.Minute

// Aggregator copies a fleet of peers' own series into one tsdb, prefixed
// "<peer>/". It derives nothing: every daemon's collector computes its
// :rate/:mean/:p99 once and serves the points at /metrics/history, and a
// scrape appends them here with the peer's timestamps. Scrapes overlap on
// purpose — a series takes only what is newer than its last point — so a
// sweep remembers of the one before only when it ran, and a peer that was
// unreachable is caught up from its own ring when it answers again. Scrapes
// ride the retrying, circuit-broken httpapi transport, so one dead daemon
// costs one fast breaker failure per sweep, not a hung fleet view.
type Aggregator struct {
	peers   []Peer
	clients []*httpapi.TelemetryClient
	db      *tsdb.DB
	now     func() time.Time

	mu        sync.Mutex
	status    map[string]*PeerStatus
	exemplars []FleetExemplar

	mScrapes  *metrics.CounterVec
	mErrors   *metrics.CounterVec
	mDuration *metrics.Histogram
	mUp       *metrics.GaugeVec
}

// AggregatorConfig wires an Aggregator.
type AggregatorConfig struct {
	Peers []Peer
	// Client is the scrape transport; nil builds one per peer with the
	// default timeout.
	Client *http.Client
	// Registry receives the aggregator's own scrape metrics; nil means the
	// process default.
	Registry *metrics.Registry
	// Now stamps scrapes; nil means time.Now.
	Now func() time.Time
}

// NewAggregator builds an aggregator over cfg.Peers.
func NewAggregator(cfg AggregatorConfig) *Aggregator {
	reg := cfg.Registry
	if reg == nil {
		reg = metrics.Default()
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	a := &Aggregator{
		peers:  append([]Peer(nil), cfg.Peers...),
		db:     tsdb.NewDB(tsdb.DefaultCapacity),
		now:    now,
		status: map[string]*PeerStatus{},
		mScrapes: reg.CounterVec("telemetry_scrapes_total",
			"Peer scrapes attempted by the aggregator.", "peer"),
		mErrors: reg.CounterVec("telemetry_scrape_errors_total",
			"Peer scrapes that failed.", "peer"),
		mDuration: reg.Histogram("telemetry_scrape_seconds",
			"Wall time of one full fleet sweep.", nil),
		mUp: reg.GaugeVec("telemetry_peer_up",
			"1 when the last scrape of the peer succeeded.", "peer"),
	}
	for _, p := range a.peers {
		a.clients = append(a.clients, httpapi.NewTelemetryClient(p.BaseURL, cfg.Client))
		a.status[p.Name] = &PeerStatus{Peer: p}
	}
	return a
}

// DB exposes the fleet series store (serve it with HistoryHandler).
func (a *Aggregator) DB() *tsdb.DB { return a.db }

// ScrapeOnce sweeps every peer concurrently, copying what each recorded
// since its last scrape into the fleet tsdb. Returns the number of peers
// that answered.
func (a *Aggregator) ScrapeOnce(ctx context.Context) int {
	start := a.now()
	type result struct {
		window    time.Duration
		appended  int
		exemplars []FleetExemplar
		err       error
	}
	results := make([]result, len(a.peers))
	a.mu.Lock()
	for i, p := range a.peers {
		results[i].window = maxHistoryWindow
		if since := a.status[p.Name].since; !since.IsZero() {
			results[i].window = start.Sub(since) + scrapeSlack
		}
	}
	a.mu.Unlock()
	var wg sync.WaitGroup
	for i := range a.peers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := &results[i]
			r.appended, r.exemplars, r.err = a.scrapePeer(ctx, i, r.window)
		}(i)
	}
	wg.Wait()

	done := a.now()
	up := 0
	a.mu.Lock()
	defer a.mu.Unlock()
	for i, res := range results {
		peer := a.peers[i]
		st := a.status[peer.Name]
		a.mScrapes.With(peer.Name).Inc()
		if res.err != nil {
			a.mErrors.With(peer.Name).Inc()
			a.mUp.With(peer.Name).Set(0)
			st.Up = false
			st.LastError = res.err.Error()
			continue
		}
		up++
		a.mUp.With(peer.Name).Set(1)
		st.Up = true
		st.LastError = ""
		st.LastScrape = done
		st.Samples = res.appended
		st.since = start
		for _, ex := range res.exemplars {
			a.addExemplarLocked(ex)
		}
	}
	a.mDuration.Observe(done.Sub(start).Seconds())
	return up
}

// scrapePeer pulls peer i's raw points over the trailing window, page by
// page, into the fleet db.
func (a *Aggregator) scrapePeer(ctx context.Context, i int, window time.Duration) (appended int, exemplars []FleetExemplar, err error) {
	q := url.Values{"series": {"*"}, "raw": {"1"}, "window": {window.String()}}
	for page := 0; page < maxScrapePages; page++ {
		var resp HistoryResponse
		if err := a.clients[i].History(ctx, q.Encode(), &resp); err != nil {
			return appended, exemplars, err
		}
		n, exs, next, err := a.ingest(a.peers[i].Name, resp)
		appended += n
		exemplars = append(exemplars, exs...)
		if err != nil || next == "" {
			return appended, exemplars, err
		}
		if next <= q.Get("after") {
			return appended, exemplars, fmt.Errorf("telemetry: %s: page after %q ends at %q", a.peers[i].Name, q.Get("after"), next)
		}
		q.Set("after", next)
	}
	return appended, exemplars, fmt.Errorf("telemetry: %s: more than %d pages", a.peers[i].Name, maxScrapePages)
}

// ingest appends one /metrics/history page, as peer sent it, to the fleet db
// under "<peer>/" and returns the exemplars it carried and the name to
// continue after ("" on the last page). Points the fleet series already has
// — the overlap with the previous scrape — are skipped; whatever else is out
// of order or not finite the series itself drops.
func (a *Aggregator) ingest(peer string, page HistoryResponse) (appended int, exemplars []FleetExemplar, next string, err error) {
	if len(page.Series) > maxHistorySeries {
		return 0, nil, "", fmt.Errorf("telemetry: %s: %d series in one history page", peer, len(page.Series))
	}
	for _, hs := range page.Series {
		s := a.db.Series(peer + "/" + hs.Name)
		last, have := s.Latest()
		for _, p := range hs.Points {
			if have && p.T <= last.T {
				continue
			}
			if s.AppendNanos(p.T, p.V) {
				appended++
			}
		}
		for _, ex := range hs.Exemplars {
			exemplars = append(exemplars, FleetExemplar{
				Peer:    peer,
				Family:  strings.TrimSuffix(hs.Name, tsdb.SuffixP99),
				TraceID: ex.TraceID,
				Value:   ex.Value,
				At:      ex.At,
			})
		}
	}
	if page.Truncated && len(page.Series) > 0 {
		next = page.Series[len(page.Series)-1].Name
	}
	return appended, exemplars, next, nil
}

// addExemplarLocked rings ex unless the fleet view already holds it: a peer
// re-serves a bucket's exemplar until a new trace lands there. Caller holds
// mu.
func (a *Aggregator) addExemplarLocked(ex FleetExemplar) {
	for i := range a.exemplars {
		e := &a.exemplars[i]
		if e.Peer == ex.Peer && e.Family == ex.Family && e.TraceID == ex.TraceID {
			return
		}
	}
	a.exemplars = append(a.exemplars, ex)
	if len(a.exemplars) > maxFleetExemplars {
		a.exemplars = a.exemplars[len(a.exemplars)-maxFleetExemplars:]
	}
}

// Run sweeps every interval until stop closes.
func (a *Aggregator) Run(stop <-chan struct{}, interval time.Duration) {
	if interval <= 0 {
		interval = DefaultScrapeInterval
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	a.ScrapeOnce(context.Background())
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			a.ScrapeOnce(context.Background())
		}
	}
}

// Exemplars returns the newest fleet exemplars, most recent last.
func (a *Aggregator) Exemplars() []FleetExemplar {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]FleetExemplar(nil), a.exemplars...)
}

// Status returns per-peer scrape health, sorted by peer name.
func (a *Aggregator) Status() []PeerStatus {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]PeerStatus, 0, len(a.status))
	for _, st := range a.status {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
