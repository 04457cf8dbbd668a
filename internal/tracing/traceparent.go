package tracing

import "strings"

// TraceparentHeader is the W3C Trace Context header name carrying a span's
// identity between daemons, in Go's canonical form: header names are
// case-insensitive on the wire, and http.Header.Get canonicalizes a lower-case
// name into a fresh string on every request.
const TraceparentHeader = "Traceparent"

// traceparent wire constants (W3C Trace Context, version 00):
// "00-<32 hex trace-id>-<16 hex parent-id>-<2 hex flags>".
const (
	tpVersion    = "00"
	flagSampled  = byte(0x01)
	tpTotalLen   = 2 + 1 + 32 + 1 + 16 + 1 + 2
	tpSampledSet = "01"
	tpSampledOff = "00"
)

// FormatTraceparent renders sc as a traceparent header value. An invalid
// context renders as "" (callers skip the header).
func FormatTraceparent(sc SpanContext) string {
	if !sc.Valid() {
		return ""
	}
	flags := tpSampledOff
	if sc.Sampled {
		flags = tpSampledSet
	}
	var b strings.Builder
	b.Grow(tpTotalLen)
	b.WriteString(tpVersion)
	b.WriteByte('-')
	b.WriteString(sc.TraceID.String())
	b.WriteByte('-')
	b.WriteString(sc.SpanID.String())
	b.WriteByte('-')
	b.WriteString(flags)
	return b.String()
}

// ParseTraceparent decodes a traceparent header value. It accepts any
// version except the reserved "ff", per the spec's forward-compatibility
// rule, and rejects all-zero ids.
func ParseTraceparent(h string) (SpanContext, bool) {
	h = strings.TrimSpace(h)
	if len(h) < tpTotalLen {
		return SpanContext{}, false
	}
	// version "ff" is forbidden; later versions may append fields after the
	// flags, so only the prefix is parsed.
	if h[0:2] == "ff" || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return SpanContext{}, false
	}
	if len(h) > tpTotalLen && h[0:2] == tpVersion {
		return SpanContext{}, false // version 00 has exactly four fields
	}
	tid, ok := ParseTraceID(h[3:35])
	if !ok {
		return SpanContext{}, false
	}
	var sid SpanID
	if !parseHex(h[36:52], sid[:]) || sid.IsZero() {
		return SpanContext{}, false
	}
	hi, lo := hexVal(h[53]), hexVal(h[54])
	if hi == 0xff || lo == 0xff {
		return SpanContext{}, false
	}
	flags := hi<<4 | lo
	return SpanContext{TraceID: tid, SpanID: sid, Sampled: flags&flagSampled != 0}, true
}

// parseHex decodes exactly len(dst)*2 lowercase/uppercase hex digits.
func parseHex(s string, dst []byte) bool {
	if len(s) != 2*len(dst) {
		return false
	}
	for i := range dst {
		hi, lo := hexVal(s[2*i]), hexVal(s[2*i+1])
		if hi == 0xff || lo == 0xff {
			return false
		}
		dst[i] = hi<<4 | lo
	}
	return true
}

func hexVal(c byte) byte {
	switch {
	case c >= '0' && c <= '9':
		return c - '0'
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10
	case c >= 'A' && c <= 'F':
		return c - 'A' + 10
	default:
		return 0xff
	}
}
