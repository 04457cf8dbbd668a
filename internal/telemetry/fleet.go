package telemetry

import (
	"encoding/json"
	"net/http"
	"time"

	"tycoongrid/internal/httpapi"
)

// FleetReport is the aggregator's rollup wire shape: per-peer scrape
// health, the fleet series catalogue and recent cross-daemon exemplars.
// gridtop renders this directly; anything else (curl, scripts) gets the
// same JSON.
type FleetReport struct {
	At        time.Time       `json:"at"`
	Peers     []PeerStatus    `json:"peers"`
	Series    []string        `json:"series"`
	Exemplars []FleetExemplar `json:"exemplars,omitempty"`
}

// Report assembles the current rollup.
func (a *Aggregator) Report() FleetReport {
	return FleetReport{
		At:        a.now(),
		Peers:     a.Status(),
		Series:    a.db.Names(),
		Exemplars: a.Exemplars(),
	}
}

// MuxOptions mounts the aggregator surface on an ObservedMux:
//
//	GET /fleet            -> FleetReport JSON
//	GET /fleet/history    -> HistoryHandler over the fleet tsdb
//
// The SLS daemon hosts this in the deployed topology — the paper's service
// location service already plays the "who is alive" directory role, so
// fleet state naturally lives beside it.
func (a *Aggregator) MuxOptions() []httpapi.MuxOption {
	fleet := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(a.Report())
	})
	return []httpapi.MuxOption{
		httpapi.WithHandler("GET /fleet", fleet),
		httpapi.WithHandler("GET /fleet/history", HistoryHandler(a.db, nil)),
	}
}
