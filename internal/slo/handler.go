package slo

import (
	"encoding/json"
	"net/http"
	"time"

	"tycoongrid/internal/tsdb"
)

// Report is the GET /slo wire shape.
type Report struct {
	Service   string    `json:"service"`
	At        time.Time `json:"at"`
	Violating int       `json:"violating"`
	NoData    int       `json:"no_data"`
	Statuses  []Status  `json:"objectives"`
}

// Handler serves the current evaluation as JSON. Every request re-evaluates;
// the judged windows are tsdb reads, cheap by construction, and re-judging
// means /slo never serves a verdict staler than the request.
func (e *Evaluator) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		statuses := e.Evaluate()
		rep := Report{Service: e.service, At: e.now(), Statuses: statuses}
		for _, st := range statuses {
			if st.Violating {
				rep.Violating++
			}
			if st.NoData {
				rep.NoData++
			}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(rep)
	})
}

// DefaultWindow is the slow window for the stock objectives.
const DefaultWindow = 5 * time.Minute

// DefaultObjectives returns the stock rule set for a market daemon. The
// series names reference what the tsdb collector derives from the standard
// metric families; objectives whose series a given daemon never emits
// simply report no-data there.
func DefaultObjectives() []Objective {
	return []Objective{
		{
			Name:        "request-latency-p99",
			Description: "HTTP request p99 stays under 50ms",
			Series:      "http_request_duration_seconds{*" + tsdb.SuffixP99,
			Op:          OpLT,
			Threshold:   0.050,
			Window:      DefaultWindow,
			Budget:      0.05, // 5% of scrape intervals may run hot
		},
		{
			Name:        "money-conservation",
			Description: "bank conservation drift is exactly zero",
			Series:      "bank_conservation_drift_credits",
			Op:          OpEQ,
			Threshold:   0,
			Window:      DefaultWindow,
			Budget:      0, // zero tolerance: any drift saturates the burn rate
		},
	}
}
