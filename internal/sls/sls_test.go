package sls

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"tycoongrid/internal/sim"
)

func host(id string, mhz float64) HostInfo {
	return HostInfo{ID: id, Endpoint: "mem://" + id, CapacityMHz: mhz, CPUs: 2, MaxVMs: 30}
}

func TestRegisterAndLookup(t *testing.T) {
	eng := sim.NewEngine()
	r := New(eng)
	if err := r.Register(host("h1", 2800)); err != nil {
		t.Fatal(err)
	}
	h, err := r.Lookup("h1")
	if err != nil {
		t.Fatal(err)
	}
	if h.CapacityMHz != 2800 {
		t.Errorf("capacity = %v", h.CapacityMHz)
	}
	if _, err := r.Lookup("ghost"); !errors.Is(err, ErrUnknownHost) {
		t.Errorf("ghost: %v", err)
	}
}

func TestRegisterValidation(t *testing.T) {
	r := New(sim.NewEngine())
	bad := []HostInfo{
		{},
		{ID: "x", CapacityMHz: 0, CPUs: 1},
		{ID: "x", CapacityMHz: 100, CPUs: 0},
	}
	for i, h := range bad {
		if err := r.Register(h); !errors.Is(err, ErrBadHost) {
			t.Errorf("case %d: %v", i, err)
		}
	}
}

func TestRegisterReplaces(t *testing.T) {
	r := New(sim.NewEngine())
	if err := r.Register(host("h1", 1000)); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(host("h1", 3000)); err != nil {
		t.Fatal(err)
	}
	h, _ := r.Lookup("h1")
	if h.CapacityMHz != 3000 {
		t.Errorf("capacity = %v, replace failed", h.CapacityMHz)
	}
	if r.Len() != 1 {
		t.Errorf("len = %d", r.Len())
	}
}

func TestTTLExpiry(t *testing.T) {
	eng := sim.NewEngine()
	r := New(eng, WithTTL(30*time.Second))
	if err := r.Register(host("h1", 1000)); err != nil {
		t.Fatal(err)
	}
	eng.RunFor(29 * time.Second)
	if _, err := r.Lookup("h1"); err != nil {
		t.Errorf("inside TTL: %v", err)
	}
	eng.RunFor(2 * time.Second)
	if _, err := r.Lookup("h1"); !errors.Is(err, ErrUnknownHost) {
		t.Errorf("after TTL: %v", err)
	}
	if r.Len() != 0 {
		t.Errorf("len = %d after expiry", r.Len())
	}
}

func TestHeartbeatKeepsAlive(t *testing.T) {
	eng := sim.NewEngine()
	r := New(eng, WithTTL(30*time.Second))
	if err := r.Register(host("h1", 1000)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		eng.RunFor(20 * time.Second)
		if err := r.Heartbeat("h1", float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	h, err := r.Lookup("h1")
	if err != nil {
		t.Fatalf("heartbeated host expired: %v", err)
	}
	if h.SpotPrice != 4 {
		t.Errorf("spot price = %v, want 4", h.SpotPrice)
	}
	// Negative price means "no update".
	if err := r.Heartbeat("h1", -1); err != nil {
		t.Fatal(err)
	}
	h, _ = r.Lookup("h1")
	if h.SpotPrice != 4 {
		t.Errorf("negative heartbeat price overwrote: %v", h.SpotPrice)
	}
	if err := r.Heartbeat("ghost", 0); !errors.Is(err, ErrUnknownHost) {
		t.Errorf("ghost heartbeat: %v", err)
	}
}

func TestDeregister(t *testing.T) {
	r := New(sim.NewEngine())
	if err := r.Register(host("h1", 1000)); err != nil {
		t.Fatal(err)
	}
	if err := r.Deregister("h1"); err != nil {
		t.Fatal(err)
	}
	if err := r.Deregister("h1"); !errors.Is(err, ErrUnknownHost) {
		t.Errorf("double deregister: %v", err)
	}
}

func TestSelectFilters(t *testing.T) {
	r := New(sim.NewEngine())
	for i := 1; i <= 10; i++ {
		h := host(fmt.Sprintf("h%02d", i), float64(i)*500)
		h.SpotPrice = float64(i)
		if i%2 == 0 {
			h.Site = "hplabs"
		} else {
			h.Site = "sics"
		}
		if err := r.Register(h); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(r.All()); got != 10 {
		t.Fatalf("all = %d", got)
	}
	if got := len(r.Select(Query{MinCapacityMHz: 2600})); got != 5 {
		t.Errorf("min capacity filter = %d, want 5", got)
	}
	if got := len(r.Select(Query{MaxSpotPrice: 3})); got != 3 {
		t.Errorf("max price filter = %d, want 3", got)
	}
	if got := len(r.Select(Query{Site: "hplabs"})); got != 5 {
		t.Errorf("site filter = %d, want 5", got)
	}
	if got := len(r.Select(Query{Limit: 4})); got != 4 {
		t.Errorf("limit = %d, want 4", got)
	}
	// Deterministic order.
	hosts := r.All()
	for i := 1; i < len(hosts); i++ {
		if hosts[i-1].ID >= hosts[i].ID {
			t.Fatal("hosts not sorted by ID")
		}
	}
}

func TestPrune(t *testing.T) {
	eng := sim.NewEngine()
	r := New(eng, WithTTL(10*time.Second))
	for i := 0; i < 4; i++ {
		if err := r.Register(host(fmt.Sprintf("h%d", i), 1000)); err != nil {
			t.Fatal(err)
		}
	}
	eng.RunFor(5 * time.Second)
	if err := r.Heartbeat("h0", -1); err != nil {
		t.Fatal(err)
	}
	eng.RunFor(6 * time.Second)
	if n := r.Prune(); n != 3 {
		t.Errorf("pruned %d, want 3", n)
	}
	if r.Len() != 1 {
		t.Errorf("len = %d, want 1", r.Len())
	}
}

// All returns every live host.
func (r *Registry) All() []HostInfo { return r.Select(Query{}) }

// Len returns the number of live hosts.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, e := range r.hosts {
		if !r.expired(e) {
			n++
		}
	}
	return n
}
