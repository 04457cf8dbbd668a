// Command gridtop is a terminal dashboard for the market telemetry plane:
// it polls a daemon's /slo and /metrics/history — or, pointed at an
// aggregator host (slsd -peers), the /fleet rollup — and renders live
// sparklines, the SLO burn-rate table, per-peer scrape health and the
// slowest traced exemplars.
//
// Usage:
//
//	gridtop -target http://localhost:7701            # live, redraws every 2s
//	gridtop -target http://localhost:7700 -once      # one frame, for scripts/CI
//	gridtop -target http://localhost:7701 -series 'bankd/*'
package main

import (
	"context"
	"flag"
	"fmt"
	"net/url"
	"os"
	"sort"
	"strings"
	"time"

	"tycoongrid/internal/httpapi"
	"tycoongrid/internal/slo"
	"tycoongrid/internal/telemetry"
)

func main() {
	target := flag.String("target", "http://localhost:7701",
		"daemon or aggregator base URL")
	interval := flag.Duration("interval", 2*time.Second, "poll and redraw interval")
	once := flag.Bool("once", false, "render a single frame and exit (CI mode)")
	window := flag.Duration("window", 5*time.Minute, "history window for sparklines")
	seriesFlag := flag.String("series", "",
		"comma-separated series names or patterns with one '*' (default: an automatic pick)")
	maxSeries := flag.Int("max-series", 12, "series rows shown")
	sparkWidth := flag.Int("spark-width", 40, "sparkline width in buckets")
	flag.Parse()

	poller := newPoller(*target, *window, *seriesFlag, *maxSeries, *sparkWidth)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), *interval+5*time.Second)
		f := poller.poll(ctx)
		cancel()
		if *once {
			fmt.Print(render(f, *sparkWidth))
			if f.SLO == nil && f.Fleet == nil && len(f.History) == 0 {
				// Nothing reachable: exit nonzero so smoke tests fail loudly.
				os.Exit(1)
			}
			return
		}
		// Clear screen + home, then the frame.
		fmt.Print("\x1b[2J\x1b[H" + render(f, *sparkWidth))
		time.Sleep(*interval)
	}
}

// poller fetches one frame's worth of telemetry per tick.
type poller struct {
	target     string
	client     *httpapi.TelemetryClient
	window     time.Duration
	series     []string // explicit patterns; empty = auto-pick
	maxSeries  int
	sparkWidth int
}

func newPoller(target string, window time.Duration, seriesSpec string, maxSeries, sparkWidth int) *poller {
	p := &poller{
		target:     strings.TrimSuffix(target, "/"),
		client:     httpapi.NewTelemetryClient(target, nil),
		window:     window,
		maxSeries:  maxSeries,
		sparkWidth: sparkWidth,
	}
	for _, s := range strings.Split(seriesSpec, ",") {
		if s = strings.TrimSpace(s); s != "" {
			p.series = append(p.series, s)
		}
	}
	return p
}

// poll assembles a frame. Every fetch is best-effort: a daemon that lacks an
// endpoint (or is down) contributes a footer note, not a crash — gridtop
// must stay useful while the fleet it watches is misbehaving.
func (p *poller) poll(ctx context.Context) frame {
	f := frame{Target: p.target, At: time.Now(), Window: p.window}

	var fr telemetry.FleetReport
	if err := p.client.Fleet(ctx, &fr); err == nil {
		f.Fleet = &fr
	}

	var rep slo.Report
	if err := p.client.SLO(ctx, &rep); err == nil {
		f.SLO = &rep
	} else {
		f.FetchErr = append(f.FetchErr, "slo: "+err.Error())
	}

	patterns := p.series
	if len(patterns) == 0 {
		patterns = p.autoPick(ctx, f.Fleet)
	}
	f.History = p.fetchHistory(ctx, f.Fleet != nil, patterns, &f.FetchErr)
	return f
}

// autoPick chooses default series: in fleet mode the derived rate/p99
// series across peers; in daemon mode a stock set of market vitals.
func (p *poller) autoPick(ctx context.Context, fleet *telemetry.FleetReport) []string {
	if fleet != nil {
		var picks []string
		for _, name := range fleet.Series {
			if strings.HasSuffix(name, ":rate") || strings.HasSuffix(name, ":p99") {
				picks = append(picks, name)
			}
		}
		sort.Strings(picks)
		if len(picks) > p.maxSeries {
			picks = picks[:p.maxSeries]
		}
		if len(picks) > 0 {
			return picks
		}
		return fleet.Series
	}
	// Daemon mode: ask the daemon what it has and keep the derived series.
	var resp telemetry.HistoryResponse
	if p.client.History(ctx, "", &resp) != nil {
		return nil
	}
	var picks []string
	for _, name := range resp.Names {
		if strings.HasSuffix(name, ":rate") || strings.HasSuffix(name, ":p99") ||
			strings.HasPrefix(name, "slo_burn_rate") ||
			strings.HasPrefix(name, "bank_conservation") ||
			name == "agent_unbanked_credits" { // how far host earnings lag the market
			picks = append(picks, name)
		}
	}
	sort.Strings(picks)
	if len(picks) > p.maxSeries {
		picks = picks[:p.maxSeries]
	}
	return picks
}

// fetchHistory pulls downsampled buckets for each pattern from the right
// history endpoint (fleet vs daemon).
func (p *poller) fetchHistory(ctx context.Context, fleetMode bool, patterns []string, errs *[]string) []telemetry.HistorySeries {
	var out []telemetry.HistorySeries
	seen := make(map[string]bool)
	for _, pattern := range patterns {
		if len(out) >= p.maxSeries {
			break
		}
		q := url.Values{}
		q.Set("series", pattern)
		q.Set("window", p.window.String())
		q.Set("buckets", fmt.Sprint(p.sparkWidth))
		var resp telemetry.HistoryResponse
		var err error
		if fleetMode {
			err = p.client.FleetHistory(ctx, q.Encode(), &resp)
		} else {
			err = p.client.History(ctx, q.Encode(), &resp)
		}
		if err != nil {
			*errs = append(*errs, "history "+pattern+": "+err.Error())
			continue
		}
		for _, hs := range resp.Series {
			if seen[hs.Name] || len(out) >= p.maxSeries {
				continue
			}
			seen[hs.Name] = true
			out = append(out, hs)
		}
	}
	return out
}
