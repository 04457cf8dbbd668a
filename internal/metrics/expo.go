package metrics

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): families sorted by name, children sorted by label
// values, histograms as cumulative le-labeled buckets plus _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, f := range r.sortedFamilies() {
		keys, children := f.sortedChildren()
		if len(children) == 0 {
			continue
		}
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
			return err
		}
		for i, c := range children {
			values := splitLabelKey(keys[i], len(f.labels))
			if err := writeChild(w, f, values, c); err != nil {
				return err
			}
		}
	}
	return nil
}

func splitLabelKey(key string, n int) []string {
	if n == 0 {
		return nil
	}
	return strings.SplitN(key, labelSep, n)
}

// writeChild renders one child's sample lines.
func writeChild(w io.Writer, f *family, values []string, child any) error {
	switch m := child.(type) {
	case *Counter:
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, labelString(f.labels, values, "", ""), m.Value())
		return err
	case *Gauge:
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, labelString(f.labels, values, "", ""), formatFloat(m.Value()))
		return err
	case *Histogram:
		for _, b := range m.Buckets() {
			le := "+Inf"
			if !math.IsInf(b.UpperBound, 1) {
				le = formatFloat(b.UpperBound)
			}
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
				f.name, labelString(f.labels, values, "le", le), b.Cumulative); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n",
			f.name, labelString(f.labels, values, "", ""), formatFloat(m.Sum())); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, labelString(f.labels, values, "", ""), m.Count())
		return err
	default:
		return fmt.Errorf("metrics: unknown child type %T", child)
	}
}

// labelString renders {k="v",...}, appending the extra pair (used for the
// histogram le label) when extraKey is non-empty. Returns "" when there are
// no labels at all.
func labelString(names, values []string, extraKey, extraVal string) string {
	if len(names) == 0 && extraKey == "" {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(n)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(values[i]))
		sb.WriteByte('"')
	}
	if extraKey != "" {
		if len(names) > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(extraKey)
		sb.WriteString(`="`)
		sb.WriteString(extraVal)
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

// Exposition-format escaping (Prometheus text format 0.0.4): label values
// escape backslash, double-quote and newline; HELP text escapes backslash and
// newline only. The replacers are package-level so every scrape reuses them.
var (
	labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	helpEscaper  = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
)

func escapeLabel(s string) string { return labelEscaper.Replace(s) }

func escapeHelp(s string) string { return helpEscaper.Replace(s) }

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
