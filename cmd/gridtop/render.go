package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"tycoongrid/internal/slo"
	"tycoongrid/internal/telemetry"
	"tycoongrid/internal/tsdb"
)

// frame is everything one render needs, assembled by the poller.
type frame struct {
	Target   string
	At       time.Time
	Fleet    *telemetry.FleetReport // nil when the target is a plain daemon
	SLO      *slo.Report            // nil when /slo was unreachable
	History  []telemetry.HistorySeries
	Window   time.Duration
	FetchErr []string // non-fatal fetch problems, shown in the footer
}

// sparkRunes are the eight-level bar glyphs, lowest to highest.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// sparkline renders values as a fixed-width bar strip scaled to the slice's
// own min..max; a flat series renders mid-height so "constant" and "absent"
// look different. Empty buckets (NaN-free by construction — the caller feeds
// bucket means with Count>0) render as spaces.
func sparkline(vals []float64, present []bool) string {
	lo, hi := 0.0, 0.0
	first := true
	for i, v := range vals {
		if !present[i] {
			continue
		}
		if first {
			lo, hi = v, v
			first = false
			continue
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	var b strings.Builder
	for i, v := range vals {
		if !present[i] {
			b.WriteByte(' ')
			continue
		}
		if hi == lo {
			b.WriteRune(sparkRunes[len(sparkRunes)/2])
			continue
		}
		idx := int((v - lo) / (hi - lo) * float64(len(sparkRunes)-1))
		if idx < 0 {
			idx = 0
		}
		if idx >= len(sparkRunes) {
			idx = len(sparkRunes) - 1
		}
		b.WriteRune(sparkRunes[idx])
	}
	return b.String()
}

// sparkSeries turns downsampled buckets into a sparkline over bucket means,
// padded on the left to width so short histories right-align at "now".
func sparkSeries(buckets []tsdb.BucketStat, width int) string {
	if width <= 0 {
		width = len(buckets)
	}
	vals := make([]float64, width)
	present := make([]bool, width)
	off := width - len(buckets)
	for i, bk := range buckets {
		if off+i < 0 {
			continue // more buckets than width: keep the newest
		}
		vals[off+i] = bk.Mean
		present[off+i] = bk.Count > 0
	}
	return sparkline(vals, present)
}

// fmtVal renders a sample value compactly: SI-ish, stable width.
func fmtVal(v float64) string {
	av := v
	if av < 0 {
		av = -av
	}
	switch {
	case v == 0:
		return "0"
	case av >= 1e6:
		return fmt.Sprintf("%.2fM", v/1e6)
	case av >= 1e3:
		return fmt.Sprintf("%.2fk", v/1e3)
	case av >= 1:
		return fmt.Sprintf("%.3g", v)
	case av >= 1e-3:
		return fmt.Sprintf("%.2fm", v*1e3)
	default:
		return fmt.Sprintf("%.2fµ", v*1e6)
	}
}

// lastMean returns the newest non-empty bucket's mean.
func lastMean(buckets []tsdb.BucketStat) (float64, bool) {
	for i := len(buckets) - 1; i >= 0; i-- {
		if buckets[i].Count > 0 {
			return buckets[i].Mean, true
		}
	}
	return 0, false
}

// render draws one full dashboard frame as plain text. Pure: no I/O, no
// clock — everything comes from the frame, so tests can assert exact output.
func render(f frame, sparkWidth int) string {
	var b strings.Builder
	mode := "daemon"
	if f.Fleet != nil {
		mode = "fleet"
	}
	fmt.Fprintf(&b, "gridtop — %s (%s)  window %s  %s\n",
		f.Target, mode, f.Window, f.At.Format("15:04:05"))
	b.WriteString(strings.Repeat("─", 72) + "\n")

	if f.Fleet != nil {
		b.WriteString("PEERS\n")
		peers := append([]telemetry.PeerStatus(nil), f.Fleet.Peers...)
		sort.Slice(peers, func(i, j int) bool { return peers[i].Name < peers[j].Name })
		for _, p := range peers {
			state := "UP  "
			if !p.Up {
				state = "DOWN"
			}
			fmt.Fprintf(&b, "  %-4s %-14s %-28s samples=%d", state, p.Name, p.BaseURL, p.Samples)
			if p.LastError != "" {
				fmt.Fprintf(&b, "  err=%s", p.LastError)
			}
			b.WriteByte('\n')
		}
		b.WriteByte('\n')
	}

	if f.SLO != nil {
		fmt.Fprintf(&b, "SLO — %s  violating=%d no-data=%d\n",
			f.SLO.Service, f.SLO.Violating, f.SLO.NoData)
		for _, st := range f.SLO.Statuses {
			badge := " ok "
			switch {
			case st.Violating:
				badge = "VIOL"
			case st.NoData:
				badge = "n/d "
			}
			fmt.Fprintf(&b, "  [%s] %-24s burn fast=%-8s slow=%-8s last=%s\n",
				badge, st.Objective.Name,
				fmtVal(st.BurnFast), fmtVal(st.BurnSlow), fmtVal(st.LastValue))
		}
		b.WriteByte('\n')
	}

	if len(f.History) > 0 {
		b.WriteString("SERIES\n")
		for _, hs := range f.History {
			last := "   -"
			if v, ok := lastMean(hs.Buckets); ok {
				last = fmtVal(v)
			}
			fmt.Fprintf(&b, "  %-44s %s %8s\n",
				trim(hs.Name, 44), sparkSeries(hs.Buckets, sparkWidth), last)
		}
		b.WriteByte('\n')
	}

	if f.Fleet != nil && len(f.Fleet.Exemplars) > 0 {
		b.WriteString("EXEMPLARS (slowest traced requests)\n")
		ex := append([]telemetry.FleetExemplar(nil), f.Fleet.Exemplars...)
		sort.Slice(ex, func(i, j int) bool { return ex[i].Value > ex[j].Value })
		if len(ex) > 5 {
			ex = ex[:5]
		}
		for _, e := range ex {
			fmt.Fprintf(&b, "  %8ss  %-12s %-32s trace=%s\n",
				fmtVal(e.Value), e.Peer, trim(e.Family, 32), e.TraceID)
		}
		b.WriteByte('\n')
	}

	for _, msg := range f.FetchErr {
		fmt.Fprintf(&b, "! %s\n", msg)
	}
	return b.String()
}

// trim shortens s to max runes with a trailing ellipsis.
func trim(s string, max int) string {
	r := []rune(s)
	if len(r) <= max {
		return s
	}
	return string(r[:max-1]) + "…"
}
