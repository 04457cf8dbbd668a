package tycoongrid_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// metricReaders is every registered metric family with the one reader that
// answers a question with it, and the file that reader lives in. A reader is
// an SLO objective, a gridtop pick by name (its generic :rate/:p99 suffix
// pick reads whatever exists, so it counts for nothing), a bench/ key, a
// test that asserts the value, or a line of README.md or the verify skill
// that tells someone what the family means or when to read it.
var metricReaders = []struct {
	name, reader, file string
}{
	{"http_request_duration_seconds", "SLO objective request-latency-p99", "internal/slo/handler.go"},
	{"bank_conservation_drift_credits", "SLO objective money-conservation", "internal/slo/handler.go"},

	{"slo_burn_rate", "gridtop's burn-rate pick", "cmd/gridtop/main.go"},
	{"agent_unbanked_credits", "gridtop's earnings-lag pick", "cmd/gridtop/main.go"},

	{"auction_clears_total", "bench key auction.clears", "bench/stats.go"},
	{"auction_bids_placed_total", "bench key auction.bids_placed", "bench/stats.go"},
	{"bank_internal_moves_total", "bench key bank.moves", "bench/stats.go"},
	{"bank_transfers_total", "bench key bank.transfers", "bench/stats.go"},
	{"token_redemptions_total", "bench key token.redemptions", "bench/stats.go"},
	{"grid_tasks_completed_total", "bench key grid.tasks_completed", "bench/stats.go"},
	{"pricefeed_samples_recorded_total", "bench key pricefeed.samples", "bench/stats.go"},
	{"arc_meta_picks_total", "bench key arc.meta_picks", "bench/stats.go"},
	{"marketplane_shard_clears_total", "bench key marketplane.clears", "bench/plane.go"},
	{"marketplane_transfers_local_total", "bench key marketplane.local_transfers", "bench/plane.go"},
	{"marketplane_transfers_cross_shard_total", "bench key marketplane.cross_shard_share", "bench/plane.go"},
	{"bank_transfer_seconds", "bench key bank.transfer_us", "bench/bankd.go"},
	{"wal_fsync_seconds", "bench key durable.fsync_us", "bench/bankd.go"},
	{"wal_records_total", "bench key durable.records_per_transfer", "bench/bankd.go"},

	{"telemetry_scrape_errors_total", "TestAggregatorPeerDownAndRecovery", "internal/telemetry/aggregator_test.go"},
	{"slo_violations_total", "TestBurnRateViolationAndRecovery", "internal/slo/slo_test.go"},
	{"pricefeed_samples_rejected_total", "TestAgentRecordsPriceHistory", "internal/agent/feed_test.go"},
	{"pki_signature_ops_total", "TestSignaturesPerOperation", "signatures_test.go"},
	{"http_transfer_phase_seconds", "TestTransferPhasesCoverTheRequest", "internal/httpapi/bankservice_test.go"},

	{"token_rejections_total", "README metric table", "README.md"},
	{"bank_accounts", "README metric table", "README.md"},
	{"bank_rejected_signatures_total", "README metric table", "README.md"},
	{"bank_transfer_phase_seconds", "README metric table", "README.md"},
	{"auction_bid_budget_credits", "README metric table", "README.md"},
	{"grid_reallocation_ticks_total", "README metric table", "README.md"},
	{"grid_running_tasks", "README metric table", "README.md"},
	{"grid_host_utilization", "README metric table", "README.md"},
	{"grid_tick_phase_seconds", "README metric table", "README.md"},
	{"arc_jobs_submitted_total", "README metric table", "README.md"},
	{"arc_jobs_terminal_total", "README metric table", "README.md"},
	{"arc_jobs_queued", "README metric table", "README.md"},
	{"batch_queue_depth", "README metric table", "README.md"},
	{"batch_free_cpus", "README metric table", "README.md"},
	{"http_requests_total", "README HTTP layer", "README.md"},
	{"http_request_errors_total", "README HTTP layer", "README.md"},
	{"http_in_flight_requests", "README HTTP layer", "README.md"},
	{"arc_meta_prediction_abs_error", "README prediction scoring", "README.md"},
	{"retries_total", "README fault-tolerance observability", "README.md"},
	{"retry_exhausted_total", "README fault-tolerance observability", "README.md"},
	{"breaker_state", "README fault-tolerance observability", "README.md"},
	{"breaker_aborted_calls_total", "README fault-tolerance observability", "README.md"},
	{"host_failures_total", "README fault-tolerance observability", "README.md"},
	{"host_recoveries_total", "README fault-tolerance observability", "README.md"},
	{"hosts_down", "README fault-tolerance observability", "README.md"},
	{"grid_tasks_killed_total", "README fault-tolerance observability", "README.md"},
	{"agent_chunks_resubmitted_total", "README fault-tolerance observability", "README.md"},
	{"agent_escrow_failed_over_total", "README fault-tolerance observability", "README.md"},
	{"agent_jobs_failed_total", "README fault-tolerance observability", "README.md"},

	{"breaker_trips_total", "verify skill's live breaker drive", ".claude/skills/verify/SKILL.md"},
	{"bank_recovery_seconds", "verify skill's durable drive", ".claude/skills/verify/SKILL.md"},
}

// TestEveryMetricHasAReader keeps the telemetry plane to what someone reads:
// every family registered in internal/ or cmd/ has a row in metricReaders,
// every row names a registered family, and every row's file names the
// family, or, when the reader is a test, the Go variable it is registered to.
// Registering a family without a reader, or editing a reader so that it no
// longer reads its family, fails here; delete the family instead.
func TestEveryMetricHasAReader(t *testing.T) {
	registered := registeredMetrics(t)
	rows := map[string]bool{}
	for _, r := range metricReaders {
		if rows[r.name] {
			t.Errorf("%s has two rows", r.name)
		}
		rows[r.name] = true
		goVar, ok := registered[r.name]
		if !ok {
			t.Errorf("%s has a row but is not registered; delete the row", r.name)
			continue
		}
		text, err := os.ReadFile(r.file)
		if err != nil {
			t.Errorf("%s: reader %s: %v", r.name, r.reader, err)
			continue
		}
		switch {
		case strings.Contains(string(text), r.name):
		case !strings.HasSuffix(r.file, "_test.go"):
			t.Errorf("%s: %s does not name it, so %s does not read it", r.name, r.file, r.reader)
		case goVar == "" || !regexp.MustCompile(`\b`+goVar+`\b`).Match(text):
			t.Errorf("%s: %s names neither it nor its variable %q, so %s does not read it", r.name, r.file, goVar, r.reader)
		}
	}
	for name := range registered {
		if !rows[name] {
			t.Errorf("%s is registered without a reader: add its row to metricReaders, or delete it", name)
		}
	}
}

// registeredMetrics parses the non-test Go under internal/ and cmd/ and
// returns every metric family registered with a string-literal name, mapped
// to the variable or field the registration is assigned to ("" when it is
// used in place).
func registeredMetrics(t *testing.T) map[string]string {
	t.Helper()
	register := map[string]bool{"Counter": true, "CounterVec": true, "Gauge": true,
		"GaugeVec": true, "Histogram": true, "HistogramVec": true}
	out := map[string]string{}
	fset := token.NewFileSet()
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			// A parent is visited before its children, so an assignment
			// names its calls before they are reached.
			assigned := map[ast.Expr]string{}
			name := func(lhs ast.Expr) string {
				switch e := lhs.(type) {
				case *ast.Ident:
					return e.Name
				case *ast.SelectorExpr:
					return e.Sel.Name
				}
				return ""
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.ValueSpec:
					for i, v := range n.Values {
						assigned[v] = n.Names[i].Name
					}
				case *ast.AssignStmt:
					for i, v := range n.Rhs {
						if len(n.Lhs) == len(n.Rhs) {
							assigned[v] = name(n.Lhs[i])
						}
					}
				case *ast.KeyValueExpr:
					assigned[n.Value] = name(n.Key)
				case *ast.CallExpr:
					sel, ok := n.Fun.(*ast.SelectorExpr)
					if !ok || !register[sel.Sel.Name] || len(n.Args) == 0 {
						break
					}
					lit, ok := n.Args[0].(*ast.BasicLit)
					if !ok || lit.Kind != token.STRING {
						break
					}
					family, err := strconv.Unquote(lit.Value)
					if err != nil {
						t.Fatalf("%s: %v", fset.Position(lit.Pos()), err)
					}
					out[family] = assigned[n]
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(out) == 0 {
		t.Fatal("found no metric registrations; the scan is broken")
	}
	return out
}
