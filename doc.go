// Package tycoongrid is a from-scratch Go reproduction of "Market-Based
// Resource Allocation using Price Prediction in a High Performance Computing
// Grid for Scientific Applications" (Sandholm, Lai, Andrade Ortíz, Odeberg —
// HPDC 2006).
//
// The repository implements the full system the paper describes: the Tycoon
// market substrate (bank, service location service, per-host proportional-
// share auctioneers), the Best Response bid optimizer, the Grid integration
// (xRSL job descriptions, an ARC-analog job manager, the scheduling agent),
// the transfer-token security model over an Ed25519 PKI, the §4 price
// prediction suite (stateless normal model, AR(k) with smoothing-spline
// pre-pass, Markowitz portfolios, moving-window statistics), and a
// discrete-event cluster simulator standing in for the paper's physical
// testbed. All of it is observable through internal/metrics, a
// dependency-free registry whose counters, gauges and latency histograms the
// daemons expose on GET /metrics (Prometheus text format) next to
// GET /healthz/live and GET /healthz/ready probes, and through
// internal/tracing, a dependency-free distributed tracer: W3C traceparent
// propagation stitches every retry attempt, daemon handler and job-lifecycle
// span of one submission into a single tree, structured slog records carry
// the active trace and span ids. Each job's own record — not its sampled span
// — yields a per-job timeline (GET /jobs/{id}/timeline) of every funding
// move, bid and placement with prices and escrow balances attached.
//
// A fault-tolerance layer hardens the stack against host and network
// failure: internal/retry provides context-aware exponential backoff with
// full jitter plus three-state circuit breakers (shared by every HTTP
// client built on internal/httpapi), internal/fault provides a seeded chaos
// http.RoundTripper and handler, and a world's box.Config.Churn crashes and
// recovers its hosts on a schedule drawn from its seed. The scheduling agent
// resubmits killed sub-jobs to surviving hosts and refunds unspent escrow on
// permanent failure; internal/chaos runs the whole market under churn and
// checks that no money is ever lost.
//
// Start with README.md for the architecture overview, DESIGN.md for the
// system inventory and experiment index, and EXPERIMENTS.md for the
// paper-vs-measured record. The benchmarks in bench_test.go regenerate every
// table and figure of the paper's evaluation; `cmd/marketbench` prints them.
package tycoongrid
