// Package sls implements Tycoon's Service Location Service: the directory
// that "maintains information on available resources" (paper §2.2).
// Auctioneers register and heartbeat their host descriptions; agents query
// for candidate hosts to run the Best Response bid distribution over.
//
// Entries expire when a configurable TTL passes without a heartbeat, so a
// crashed auctioneer silently drops out of placement decisions — the
// decentralization property the paper's architecture relies on.
package sls

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"tycoongrid/internal/sim"
)

// HostInfo describes one auctioneer-managed host.
type HostInfo struct {
	ID          string  // unique host id
	Endpoint    string  // where the auctioneer listens (URL or logical name)
	CapacityMHz float64 // total CPU capacity of the host
	CPUs        int     // physical CPUs
	MaxVMs      int     // virtual machine limit (paper: ~15x physical nodes)
	SpotPrice   float64 // latest spot price, credits/hour, advisory
	Site        string  // owning site, e.g. "hplabs", "sics"
}

// entry is a registered host plus bookkeeping.
type entry struct {
	info HostInfo
	seen time.Time
}

// Registry is the in-memory SLS. Safe for concurrent use.
type Registry struct {
	mu    sync.Mutex
	ttl   time.Duration
	clock sim.Clock
	hosts map[string]*entry
}

// Option customizes a Registry.
type Option func(*Registry)

// WithTTL sets the heartbeat expiry (default 60 s).
func WithTTL(ttl time.Duration) Option {
	return func(r *Registry) { r.ttl = ttl }
}

// New returns an empty registry using clock for expiry decisions.
func New(clock sim.Clock, opts ...Option) *Registry {
	if clock == nil {
		clock = sim.WallClock{}
	}
	r := &Registry{ttl: 60 * time.Second, clock: clock, hosts: make(map[string]*entry)}
	for _, o := range opts {
		o(r)
	}
	return r
}

// Errors returned by the registry.
var (
	ErrUnknownHost = errors.New("sls: unknown host")
	ErrBadHost     = errors.New("sls: invalid host description")
)

// Register adds or replaces a host record and marks it alive now.
func (r *Registry) Register(h HostInfo) error {
	if h.ID == "" || h.CapacityMHz <= 0 || h.CPUs <= 0 {
		return fmt.Errorf("%w: %+v", ErrBadHost, h)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.hosts[h.ID] = &entry{info: h, seen: r.clock.Now()}
	return nil
}

// Heartbeat refreshes a host's liveness and optionally its spot price.
func (r *Registry) Heartbeat(id string, spotPrice float64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.hosts[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownHost, id)
	}
	e.seen = r.clock.Now()
	if spotPrice >= 0 {
		e.info.SpotPrice = spotPrice
	}
	return nil
}

// Deregister removes a host.
func (r *Registry) Deregister(id string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.hosts[id]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownHost, id)
	}
	delete(r.hosts, id)
	return nil
}

// Lookup returns a live host's record.
func (r *Registry) Lookup(id string) (HostInfo, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.hosts[id]
	if !ok || r.expired(e) {
		return HostInfo{}, fmt.Errorf("%w: %q", ErrUnknownHost, id)
	}
	return e.info, nil
}

// Query selects live hosts matching the filter, sorted by ID for
// deterministic placement.
type Query struct {
	MinCapacityMHz float64
	MaxSpotPrice   float64 // 0 = no limit
	Site           string  // "" = any
	Limit          int     // 0 = all
}

// Select returns live hosts matching q.
func (r *Registry) Select(q Query) []HostInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []HostInfo
	for _, e := range r.hosts {
		if r.expired(e) {
			continue
		}
		h := e.info
		if h.CapacityMHz < q.MinCapacityMHz {
			continue
		}
		if q.MaxSpotPrice > 0 && h.SpotPrice > q.MaxSpotPrice {
			continue
		}
		if q.Site != "" && h.Site != q.Site {
			continue
		}
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	if q.Limit > 0 && len(out) > q.Limit {
		out = out[:q.Limit]
	}
	return out
}

// Prune removes expired entries and returns how many were dropped.
func (r *Registry) Prune() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for id, e := range r.hosts {
		if r.expired(e) {
			delete(r.hosts, id)
			n++
		}
	}
	return n
}

func (r *Registry) expired(e *entry) bool {
	return r.clock.Now().Sub(e.seen) > r.ttl
}
