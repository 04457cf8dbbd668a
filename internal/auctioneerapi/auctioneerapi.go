// Package auctioneerapi serves one host's auction market over JSON/HTTP,
// with its typed Go client, on httpapi's transport. Only auctioneerd and
// gridclient import it, so the bank and SLS daemons do not link the
// auction, its clearing mechanisms or the predictors.
package auctioneerapi

import (
	"context"
	"errors"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"tycoongrid/internal/auction"
	"tycoongrid/internal/bank"
	"tycoongrid/internal/httpapi"
	"tycoongrid/internal/stats"
)

// Service exposes one host's market over HTTP, with the §4 statistics
// trackers attached: moving-window moments and slot-table distributions per
// configured window.
type Service struct {
	market *auction.Market
	mux    *http.ServeMux

	mu       sync.Mutex
	trackers map[string]*windowTracker
}

type windowTracker struct {
	moments *stats.MovingMoments
	dist    *stats.WindowDistribution
}

// NewService wraps a market and attaches statistics windows named by label
// ("hour" -> 360 snapshots etc.).
func NewService(m *auction.Market, windows map[string]int) (*Service, error) {
	s := &Service{
		market:   m,
		mux:      http.NewServeMux(),
		trackers: make(map[string]*windowTracker),
	}
	for name, n := range windows {
		mm, err := stats.NewMovingMoments(n)
		if err != nil {
			return nil, err
		}
		wd, err := stats.NewWindowDistribution(n, 20)
		if err != nil {
			return nil, err
		}
		s.trackers[name] = &windowTracker{moments: mm, dist: wd}
	}
	m.Observe(func(price float64, _ time.Time) {
		s.mu.Lock()
		defer s.mu.Unlock()
		for _, t := range s.trackers {
			t.moments.Observe(price)
			t.dist.Observe(price)
		}
	})
	s.mux.HandleFunc("GET /status", s.status)
	s.mux.HandleFunc("POST /bids", s.placeBid)
	s.mux.HandleFunc("POST /boosts", s.boost)
	s.mux.HandleFunc("DELETE /bids/{bidder...}", s.cancelBid)
	s.mux.HandleFunc("GET /shares", s.shares)
	s.mux.HandleFunc("GET /stats/{window}", s.windowStats)
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Service) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// ReplayPrices seeds every statistics window with historical price samples,
// oldest first. A restarting auctioneerd feeds its recovered price log
// through this before serving, so prediction quantiles and moving moments
// pick up where the crashed process left off instead of relearning from an
// empty window.
func (s *Service) ReplayPrices(prices []float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range prices {
		for _, t := range s.trackers {
			t.moments.Observe(p)
			t.dist.Observe(p)
		}
	}
}

// Wire types.
type (
	// MarketStatus is the host's public market state.
	MarketStatus struct {
		HostID      string  `json:"host_id"`
		CapacityMHz float64 `json:"capacity_mhz"`
		SpotPrice   float64 `json:"spot_price"`    // credits/second
		PricePerMHz float64 `json:"price_per_mhz"` // the paper's $/s per cycles/s
		Bidders     int     `json:"bidders"`
	}
	// BidRequest places or replaces a bid.
	BidRequest struct {
		Bidder   string    `json:"bidder"`
		Budget   string    `json:"budget"` // decimal credits
		Deadline time.Time `json:"deadline"`
	}
	// BidResponse reports the refund of a replaced bid.
	BidResponse struct {
		Refund string `json:"refund"`
	}
	// BoostRequest adds funds to an existing bid.
	BoostRequest struct {
		Bidder string `json:"bidder"`
		Extra  string `json:"extra"`
	}
	// ShareWire is one bidder's current allocation.
	ShareWire struct {
		Bidder    string  `json:"bidder"`
		Fraction  float64 `json:"fraction"`
		Rate      float64 `json:"rate"`
		Remaining string  `json:"remaining"`
	}
	// WindowStats reports §4 statistics for one moving window.
	WindowStats struct {
		Window   string         `json:"window"`
		Mean     float64        `json:"mean"`
		StdDev   float64        `json:"std_dev"`
		Skewness float64        `json:"skewness"`
		Kurtosis float64        `json:"kurtosis"`
		Count    int64          `json:"count"`
		Buckets  []stats.Bucket `json:"buckets"`
	}
)

func auctionStatus(err error) int {
	switch {
	case errors.Is(err, auction.ErrUnknownBidder):
		return http.StatusNotFound
	default:
		return http.StatusBadRequest
	}
}

func (s *Service) status(w http.ResponseWriter, r *http.Request) {
	httpapi.WriteJSON(w, MarketStatus{
		HostID:      s.market.HostID(),
		CapacityMHz: s.market.CapacityMHz(),
		SpotPrice:   s.market.SpotPrice(),
		PricePerMHz: s.market.PricePerMHz(),
		Bidders:     s.market.Bidders(),
	})
}

func (s *Service) placeBid(w http.ResponseWriter, r *http.Request) {
	var req BidRequest
	if err := httpapi.ReadJSON(r, &req); err != nil {
		httpapi.WriteError(w, httpapi.ReadStatus(err), err)
		return
	}
	budget, err := bank.ParseAmount(req.Budget)
	if err != nil {
		httpapi.WriteError(w, http.StatusBadRequest, err)
		return
	}
	refund, err := s.market.PlaceBid(auction.BidderID(req.Bidder), budget, req.Deadline)
	if err != nil {
		httpapi.WriteError(w, auctionStatus(err), err)
		return
	}
	httpapi.WriteJSON(w, BidResponse{Refund: refund.String()})
}

func (s *Service) boost(w http.ResponseWriter, r *http.Request) {
	var req BoostRequest
	if err := httpapi.ReadJSON(r, &req); err != nil {
		httpapi.WriteError(w, httpapi.ReadStatus(err), err)
		return
	}
	extra, err := bank.ParseAmount(req.Extra)
	if err != nil {
		httpapi.WriteError(w, http.StatusBadRequest, err)
		return
	}
	if err := s.market.Boost(auction.BidderID(req.Bidder), extra); err != nil {
		httpapi.WriteError(w, auctionStatus(err), err)
		return
	}
	httpapi.WriteJSON(w, map[string]string{"status": "ok"})
}

func (s *Service) cancelBid(w http.ResponseWriter, r *http.Request) {
	refund, err := s.market.CancelBid(auction.BidderID(r.PathValue("bidder")))
	if err != nil {
		httpapi.WriteError(w, auctionStatus(err), err)
		return
	}
	httpapi.WriteJSON(w, BidResponse{Refund: refund.String()})
}

func (s *Service) shares(w http.ResponseWriter, r *http.Request) {
	shares := s.market.Shares()
	out := make([]ShareWire, len(shares))
	for i, sh := range shares {
		out[i] = ShareWire{
			Bidder:    string(sh.Bidder),
			Fraction:  sh.Fraction,
			Rate:      sh.Rate,
			Remaining: sh.Remaining.String(),
		}
	}
	httpapi.WriteJSON(w, out)
}

func (s *Service) windowStats(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("window")
	s.mu.Lock()
	t, ok := s.trackers[name]
	if !ok {
		s.mu.Unlock()
		httpapi.WriteError(w, http.StatusNotFound, errors.New("auctioneerapi: unknown stats window "+name))
		return
	}
	snap := t.moments.Snapshot()
	buckets := t.dist.Buckets()
	s.mu.Unlock()
	httpapi.WriteJSON(w, WindowStats{
		Window:   name,
		Mean:     snap.Mean,
		StdDev:   snap.StdDev,
		Skewness: snap.Skewness,
		Kurtosis: snap.Kurtosis,
		Count:    snap.Count,
		Buckets:  buckets,
	})
}

// Client is the typed client for one host's auctioneer.
type Client struct {
	base string
	call httpapi.Caller
}

// NewClient targets base. A nil client defaults to one with
// httpapi.DefaultClientTimeout. Reads are retried with backoff; PlaceBid,
// Boost and CancelBid move money without replay protection, so they are
// single attempts. All calls share one circuit breaker named "auctioneer".
func NewClient(base string, client *http.Client) *Client {
	return &Client{base: strings.TrimSuffix(base, "/"), call: httpapi.NewCaller("auctioneer", client)}
}

// Status fetches the market state.
func (c *Client) Status() (MarketStatus, error) {
	var out MarketStatus
	err := c.call.Get(context.Background(), c.base+"/status", &out)
	return out, err
}

// PlaceBid enters a bid; the returned amount is the refund of any replaced
// bid.
func (c *Client) PlaceBid(bidder string, budget bank.Amount, deadline time.Time) (bank.Amount, error) {
	var out BidResponse
	err := c.call.Post(context.Background(), c.base+"/bids",
		BidRequest{Bidder: bidder, Budget: budget.String(), Deadline: deadline}, &out)
	if err != nil {
		return 0, err
	}
	return bank.ParseAmount(out.Refund)
}

// Boost adds funds to a bid.
func (c *Client) Boost(bidder string, extra bank.Amount) error {
	return c.call.Post(context.Background(), c.base+"/boosts",
		BoostRequest{Bidder: bidder, Extra: extra.String()}, nil)
}

// CancelBid withdraws a bid, returning the unspent budget.
func (c *Client) CancelBid(bidder string) (bank.Amount, error) {
	var out BidResponse
	if err := c.call.Delete(context.Background(), c.base+"/bids/"+url.PathEscape(bidder), &out); err != nil {
		return 0, err
	}
	return bank.ParseAmount(out.Refund)
}

// Shares lists current allocations.
func (c *Client) Shares() ([]ShareWire, error) {
	var out []ShareWire
	err := c.call.Get(context.Background(), c.base+"/shares", &out)
	return out, err
}

// WindowStats fetches the §4 statistics for one window label.
func (c *Client) WindowStats(window string) (WindowStats, error) {
	var out WindowStats
	err := c.call.Get(context.Background(), c.base+"/stats/"+url.PathEscape(window), &out)
	return out, err
}
