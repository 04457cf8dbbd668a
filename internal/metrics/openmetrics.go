package metrics

import (
	"fmt"
	"io"
	"strings"
)

// OpenMetricsContentType is the content type of WriteOpenMetrics output, the
// value a scraper puts in Accept to negotiate the richer format (exemplars,
// explicit EOF) from /metrics.
const OpenMetricsContentType = "application/openmetrics-text; version=1.0.0; charset=utf-8"

// WriteOpenMetrics renders the registry in the OpenMetrics 1.0 text format:
// the same families, ordering and escaping as WritePrometheus, plus
// per-bucket exemplars on histograms ("# {trace_id=...} value timestamp")
// and the mandatory "# EOF" terminator. Counter families drop the "_total"
// suffix in their TYPE/HELP metadata, as the spec requires, while samples
// keep it.
func (r *Registry) WriteOpenMetrics(w io.Writer) error {
	for _, f := range r.sortedFamilies() {
		keys, children := f.sortedChildren()
		if len(children) == 0 {
			continue
		}
		meta := f.name
		if f.kind == KindCounter {
			meta = strings.TrimSuffix(meta, "_total")
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", meta, f.kind); err != nil {
			return err
		}
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", meta, escapeHelp(f.help)); err != nil {
				return err
			}
		}
		for i, c := range children {
			values := splitLabelKey(keys[i], len(f.labels))
			if err := writeChild(w, f, values, c, true); err != nil {
				return err
			}
		}
	}
	_, err := io.WriteString(w, "# EOF\n")
	return err
}
