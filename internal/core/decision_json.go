package core

import (
	"math"
	"strconv"
	"unicode/utf8"

	"sensorguard/internal/vecmat"
)

// appendDecisionRecord appends rec as one NDJSON line to dst, byte for byte
// what json.Encoder (HTML escaping on) writes for it: the same field order
// and omitempty rules, "null" for a nil Delta, the same string escaping and
// the same float formatting. It reports false when rec holds a NaN or an
// infinity, which encoding/json refuses to encode.
func appendDecisionRecord(dst []byte, rec *DecisionRecord) ([]byte, bool) {
	if !rec.finite() {
		return dst, false
	}
	b := append(dst, '{')
	if rec.Deployment != "" {
		b = append(b, `"deployment":`...)
		b = appendJSONString(b, rec.Deployment)
		b = append(b, ',')
	}
	b = appendJSONInt(append(b, `"window":`...), rec.Window)
	if rec.TraceID != "" {
		b = appendJSONString(append(b, `,"trace_id":`...), rec.TraceID)
	}
	if rec.Skipped {
		b = append(b, `,"skipped":true`...)
	}
	b = appendJSONInt(append(b, `,"observable":`...), rec.Observable)
	b = appendJSONInt(append(b, `,"correct":`...), rec.Correct)
	if len(rec.ObservableAttrs) > 0 {
		b = appendJSONFloats(append(b, `,"observable_attrs":`...), rec.ObservableAttrs)
	}
	if len(rec.CorrectAttrs) > 0 {
		b = appendJSONFloats(append(b, `,"correct_attrs":`...), rec.CorrectAttrs)
	}
	if len(rec.Clusters) > 0 {
		b = append(b, `,"clusters":[`...)
		for i, c := range rec.Clusters {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendJSONInt(append(b, `{"state":`...), c.State)
			b = appendJSONInt(append(b, `,"size":`...), c.Size)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	if len(rec.Sensors) > 0 {
		b = append(b, `,"sensors":[`...)
		for i, s := range rec.Sensors {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendJSONInt(append(b, `{"sensor":`...), s.Sensor)
			b = appendJSONInt(append(b, `,"nearest_state":`...), s.Nearest)
			b = strconv.AppendBool(append(b, `,"raw_alarm":`...), s.RawAlarm)
			b = strconv.AppendBool(append(b, `,"filtered_alarm":`...), s.FilteredAlarm)
			b = strconv.AppendBool(append(b, `,"track_open":`...), s.TrackOpen)
			if s.Symbol != "" {
				b = appendJSONString(append(b, `,"symbol":`...), s.Symbol)
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	b = appendJSONInt(append(b, `,"raw_alarms":`...), rec.RawAlarms)
	b = appendJSONInt(append(b, `,"filtered_alarms":`...), rec.FilteredAlarms)
	if len(rec.Quarantined) > 0 {
		b = appendJSONInts(append(b, `,"quarantined":`...), rec.Quarantined)
	}
	if ev := rec.Evidence; ev != nil {
		b = appendJSONString(append(b, `,"evidence":{"verdict":`...), ev.Verdict)
		b = appendJSONFloat(append(b, `,"confidence":`...), ev.Confidence)
		if len(ev.RowViolations) > 0 {
			b = appendViolations(append(b, `,"row_violations":`...), ev.RowViolations)
		}
		if len(ev.ColViolations) > 0 {
			b = appendViolations(append(b, `,"col_violations":`...), ev.ColViolations)
		}
		if len(ev.Associations) > 0 {
			b = append(b, `,"associations":[`...)
			for i, a := range ev.Associations {
				if i > 0 {
					b = append(b, ',')
				}
				b = appendJSONInt(append(b, `{"Hidden":`...), a.Hidden)
				b = appendJSONInt(append(b, `,"Symbol":`...), a.Symbol)
				b = appendJSONFloat(append(b, `,"Mass":`...), a.Mass)
				b = append(b, '}')
			}
			b = append(b, ']')
		}
		if len(ev.ActiveHidden) > 0 {
			b = appendJSONInts(append(b, `,"active_hidden":`...), ev.ActiveHidden)
		}
		if len(ev.Divergence) > 0 {
			b = append(b, `,"divergence":[`...)
			for i, dv := range ev.Divergence {
				if i > 0 {
					b = append(b, ',')
				}
				b = appendJSONInt(append(b, `{"hidden":`...), dv.Hidden)
				b = appendJSONInt(append(b, `,"symbol":`...), dv.Symbol)
				b = appendJSONFloats(append(b, `,"delta":`...), dv.Delta)
				b = strconv.AppendBool(append(b, `,"all_displaced":`...), dv.AllDisplaced)
				b = append(b, '}')
			}
			b = append(b, ']')
		}
		b = append(b, '}')
	}
	return append(b, '}', '\n'), true
}

// finite reports whether every float in the record is encodable as JSON.
func (rec *DecisionRecord) finite() bool {
	if !finiteFloats(rec.ObservableAttrs) || !finiteFloats(rec.CorrectAttrs) {
		return false
	}
	ev := rec.Evidence
	if ev == nil {
		return true
	}
	if !finiteFloat(ev.Confidence) {
		return false
	}
	for _, vs := range [][]vecmat.OrthoViolation{ev.RowViolations, ev.ColViolations} {
		for _, v := range vs {
			if !finiteFloat(v.Dot) {
				return false
			}
		}
	}
	for _, a := range ev.Associations {
		if !finiteFloat(a.Mass) {
			return false
		}
	}
	for _, dv := range ev.Divergence {
		if !finiteFloats(dv.Delta) {
			return false
		}
	}
	return true
}

func finiteFloat(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

func finiteFloats(v vecmat.Vector) bool {
	for _, f := range v {
		if !finiteFloat(f) {
			return false
		}
	}
	return true
}

func appendJSONInt(b []byte, v int) []byte { return strconv.AppendInt(b, int64(v), 10) }

func appendJSONInts(b []byte, vs []int) []byte {
	b = append(b, '[')
	for i, v := range vs {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendJSONInt(b, v)
	}
	return append(b, ']')
}

// appendJSONFloats encodes a float slice; nil is "null", as encoding/json
// writes a nil slice.
func appendJSONFloats(b []byte, vs []float64) []byte {
	if vs == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, v := range vs {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendJSONFloat(b, v)
	}
	return append(b, ']')
}

func appendViolations(b []byte, vs []vecmat.OrthoViolation) []byte {
	b = append(b, '[')
	for i, v := range vs {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendJSONInt(append(b, `{"I":`...), v.I)
		b = appendJSONInt(append(b, `,"J":`...), v.J)
		b = appendJSONFloat(append(b, `,"Dot":`...), v.Dot)
		b = append(b, '}')
	}
	return append(b, ']')
}

// appendJSONFloat formats a finite float64 the way encoding/json does: the
// shortest representation, in exponent form below 1e-6 and from 1e21 on,
// with a single-digit negative exponent unpadded ("1e-7", not "1e-07").
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

const hexDigits = "0123456789abcdef"

// appendJSONString quotes s the way encoding/json does with HTML escaping
// on: `"` and `\` are backslash-escaped; \b, \f, \n, \r and \t use their
// short forms; other control bytes and <, >, & become \u00XX; invalid
// UTF-8 becomes \ufffd; U+2028 and U+2029 are escaped.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
