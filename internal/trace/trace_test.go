package trace

import (
	"slices"
	"testing"
	"time"

	"tycoongrid/internal/sim"
)

func at(d time.Duration) time.Time { return sim.Epoch.Add(d) }

// Record keeps each host's observations in order: an older one is dropped,
// one at the newest instant is kept, and hosts do not disturb each other.
func TestRecordDropsOutOfOrder(t *testing.T) {
	r := NewRecorder()
	r.Record("h1", at(0), 0.5)
	r.Record("h1", at(10*time.Second), 0.7)
	r.Record("h2", at(0), 1.0)
	r.Record("h1", at(5*time.Second), 9.9)
	r.Record("h1", at(10*time.Second), 0.8)

	var got []float64
	for _, p := range r.hosts["h1"] {
		got = append(got, p.value)
	}
	if want := []float64{0.5, 0.7, 0.8}; !slices.Equal(got, want) {
		t.Errorf("h1 holds %v, want %v", got, want)
	}
	if h2 := r.hosts["h2"]; len(h2) != 1 || h2[0].value != 1.0 {
		t.Errorf("h2 holds %v", h2)
	}
}
