package main

import (
	"strings"
	"testing"
	"time"

	"tycoongrid/internal/slo"
	"tycoongrid/internal/telemetry"
	"tycoongrid/internal/tsdb"
)

func TestSparkline(t *testing.T) {
	got := sparkline(
		[]float64{0, 1, 2, 3, 4, 5, 6, 7},
		[]bool{true, true, true, true, true, true, true, true})
	if got != "▁▂▃▄▅▆▇█" {
		t.Fatalf("ramp sparkline = %q", got)
	}
	// Flat series renders mid-height, not bottom — distinguishable from 0.
	flat := sparkline([]float64{5, 5, 5}, []bool{true, true, true})
	if flat != "▅▅▅" {
		t.Fatalf("flat sparkline = %q", flat)
	}
	// Absent buckets render as spaces.
	gappy := sparkline([]float64{1, 0, 2}, []bool{true, false, true})
	if gappy != "▁ █" {
		t.Fatalf("gappy sparkline = %q", gappy)
	}
}

func TestSparkSeriesRightAligns(t *testing.T) {
	buckets := []tsdb.BucketStat{
		{Count: 1, Mean: 1},
		{Count: 1, Mean: 2},
	}
	got := sparkSeries(buckets, 5)
	if len([]rune(got)) != 5 {
		t.Fatalf("width = %d, want 5 (%q)", len([]rune(got)), got)
	}
	if !strings.HasPrefix(got, "   ") {
		t.Fatalf("short history must left-pad: %q", got)
	}
}

func TestFmtVal(t *testing.T) {
	cases := map[float64]string{
		0:        "0",
		1500000:  "1.50M",
		2500:     "2.50k",
		3.25:     "3.25",
		0.042:    "42.00m",
		0.000007: "7.00µ",
	}
	for in, want := range cases {
		if got := fmtVal(in); got != want {
			t.Errorf("fmtVal(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestRenderFrame(t *testing.T) {
	at := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	f := frame{
		Target: "http://localhost:7701",
		At:     at,
		Window: 5 * time.Minute,
		Fleet: &telemetry.FleetReport{
			At: at,
			Peers: []telemetry.PeerStatus{
				{Peer: telemetry.Peer{Name: "bankd", BaseURL: "http://localhost:7700"}, Up: true, Samples: 42},
				{Peer: telemetry.Peer{Name: "h1", BaseURL: "http://localhost:7710"}, Up: false, LastError: "connection refused"},
			},
			Exemplars: []telemetry.FleetExemplar{
				{Peer: "bankd", Family: "bank_transfer_seconds", TraceID: "deadbeef", Value: 0.2, At: at},
			},
		},
		SLO: &slo.Report{
			Service: "slsd", At: at, Violating: 1,
			Statuses: []slo.Status{
				{Objective: slo.Objective{Name: "request-latency-p99"}, Violating: true, BurnFast: 12, BurnSlow: 4},
				{Objective: slo.Objective{Name: "money-conservation"}, NoData: true},
			},
		},
		History: []telemetry.HistorySeries{
			{Name: "bankd/http_requests_total:rate", Buckets: []tsdb.BucketStat{
				{Count: 3, Mean: 1}, {Count: 3, Mean: 9},
			}},
		},
		FetchErr: []string{"history x: boom"},
	}
	out := render(f, 10)
	for _, want := range []string{
		"gridtop — http://localhost:7701 (fleet)",
		"UP   bankd",
		"DOWN h1",
		"connection refused",
		"[VIOL] request-latency-p99",
		"[n/d ] money-conservation",
		"bankd/http_requests_total:rate",
		"bank_transfer_seconds",
		"trace=deadbeef",
		"! history x: boom",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("frame missing %q:\n%s", want, out)
		}
	}
	// Daemon mode renders without a fleet section.
	f.Fleet = nil
	out = render(f, 10)
	if strings.Contains(out, "PEERS") {
		t.Fatalf("daemon-mode frame must not show PEERS:\n%s", out)
	}
	if !strings.Contains(out, "(daemon)") {
		t.Fatalf("daemon-mode header missing:\n%s", out)
	}
}
