package httpapi

import (
	"context"
	"errors"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"tycoongrid/internal/sls"
)

// SLSService exposes the Service Location Service over HTTP.
type SLSService struct {
	reg *sls.Registry
	mux *http.ServeMux
}

// NewSLSService wraps reg.
func NewSLSService(reg *sls.Registry) *SLSService {
	s := &SLSService{reg: reg, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /hosts", s.register)
	s.mux.HandleFunc("GET /hosts", s.query)
	s.mux.HandleFunc("GET /hosts/{id}", s.lookup)
	s.mux.HandleFunc("DELETE /hosts/{id}", s.deregister)
	s.mux.HandleFunc("POST /heartbeats", s.heartbeat)
	return s
}

// ServeHTTP implements http.Handler.
func (s *SLSService) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// HeartbeatRequest refreshes a host's liveness.
type HeartbeatRequest struct {
	ID        string  `json:"id"`
	SpotPrice float64 `json:"spot_price"` // negative = no update
}

func slsStatus(err error) int {
	if errors.Is(err, sls.ErrUnknownHost) {
		return http.StatusNotFound
	}
	return http.StatusBadRequest
}

func (s *SLSService) register(w http.ResponseWriter, r *http.Request) {
	var h sls.HostInfo
	if err := ReadJSON(r, &h); err != nil {
		WriteError(w, ReadStatus(err), err)
		return
	}
	if err := s.reg.Register(h); err != nil {
		WriteError(w, slsStatus(err), err)
		return
	}
	WriteJSON(w, h)
}

func (s *SLSService) query(w http.ResponseWriter, r *http.Request) {
	q := sls.Query{Site: r.URL.Query().Get("site")}
	if v := r.URL.Query().Get("min_capacity"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			WriteError(w, http.StatusBadRequest, err)
			return
		}
		q.MinCapacityMHz = f
	}
	if v := r.URL.Query().Get("max_price"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			WriteError(w, http.StatusBadRequest, err)
			return
		}
		q.MaxSpotPrice = f
	}
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			WriteError(w, http.StatusBadRequest, err)
			return
		}
		q.Limit = n
	}
	WriteJSON(w, s.reg.Select(q))
}

func (s *SLSService) lookup(w http.ResponseWriter, r *http.Request) {
	h, err := s.reg.Lookup(r.PathValue("id"))
	if err != nil {
		WriteError(w, slsStatus(err), err)
		return
	}
	WriteJSON(w, h)
}

func (s *SLSService) deregister(w http.ResponseWriter, r *http.Request) {
	if err := s.reg.Deregister(r.PathValue("id")); err != nil {
		WriteError(w, slsStatus(err), err)
		return
	}
	WriteJSON(w, map[string]string{"status": "ok"})
}

func (s *SLSService) heartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if err := ReadJSON(r, &req); err != nil {
		WriteError(w, ReadStatus(err), err)
		return
	}
	if err := s.reg.Heartbeat(req.ID, req.SpotPrice); err != nil {
		WriteError(w, slsStatus(err), err)
		return
	}
	WriteJSON(w, map[string]string{"status": "ok"})
}

// SLSClient is the typed client for an SLSService.
type SLSClient struct {
	base string
	call Caller
}

// NewSLSClient targets base. A nil client defaults to one with
// DefaultClientTimeout. Reads, Register and Heartbeat (idempotent state
// refreshes) are retried with backoff; Deregister is a single attempt. All
// calls share one circuit breaker named "sls".
func NewSLSClient(base string, client *http.Client) *SLSClient {
	return &SLSClient{base: strings.TrimSuffix(base, "/"), call: NewCaller("sls", client)}
}

// Register announces a host.
func (c *SLSClient) Register(h sls.HostInfo) error {
	// Retried: registration upserts the host record.
	return c.call.PostIdempotent(context.Background(), c.base+"/hosts", h, nil)
}

// Heartbeat refreshes liveness and (optionally) the advertised spot price.
func (c *SLSClient) Heartbeat(id string, spotPrice float64) error {
	// Retried: a heartbeat just refreshes liveness and price.
	return c.call.PostIdempotent(context.Background(), c.base+"/heartbeats",
		HeartbeatRequest{ID: id, SpotPrice: spotPrice}, nil)
}

// Select queries live hosts.
func (c *SLSClient) Select(q sls.Query) ([]sls.HostInfo, error) {
	v := url.Values{}
	v.Set("min_capacity", strconv.FormatFloat(q.MinCapacityMHz, 'g', -1, 64))
	v.Set("max_price", strconv.FormatFloat(q.MaxSpotPrice, 'g', -1, 64))
	v.Set("limit", strconv.Itoa(q.Limit))
	if q.Site != "" {
		v.Set("site", q.Site)
	}
	var out []sls.HostInfo
	err := c.call.Get(context.Background(), c.base+"/hosts?"+v.Encode(), &out)
	return out, err
}

// Lookup fetches one host.
func (c *SLSClient) Lookup(id string) (sls.HostInfo, error) {
	var out sls.HostInfo
	err := c.call.Get(context.Background(), c.base+"/hosts/"+url.PathEscape(id), &out)
	return out, err
}

// Deregister removes a host.
func (c *SLSClient) Deregister(id string) error {
	return c.call.Delete(context.Background(), c.base+"/hosts/"+url.PathEscape(id), nil)
}
