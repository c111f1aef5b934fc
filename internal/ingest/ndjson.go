package ingest

import (
	"bytes"
	"strconv"

	"sensorguard/internal/vecmat"
)

// maxInterned bounds how many deployment names one stream's decoder
// interns: a stream carries a handful of deployments, and a producer cycling
// through fresh names must not grow the table without limit.
const maxInterned = 64

// maxSlab is the largest values slab, in float64s, a stream's decoder
// allocates at once (4 KiB).
const maxSlab = 512

// lineDecoder decodes NDJSON lines in a single pass when they are
// canonical, and through decodeJSON (encoding/json) otherwise.
//
// A canonical line is a compact JSON object (no whitespace between tokens,
// as EncodeLine writes it) holding only the five wireReading keys, spelled
// exactly, each at most once, in any order. Its strings are ASCII without
// escapes, and its numbers follow the JSON number grammar and parse with
// the strconv call encoding/json makes for the field: ParseUint for seq,
// ParseInt for sensor, ParseFloat(…, 64) for time_s and values. Such a line
// decodes to exactly the wireReading encoding/json would build. Everything
// else — whitespace, escapes, non-ASCII text, null, unknown, duplicate or
// differently-cased keys, a number the field's parse refuses, trailing
// bytes — falls back, so every accepted Reading and every error text is
// encoding/json's.
//
// The zero value suits one-shot use (DecodeLine): it interns nothing and
// sizes each values vector to its line. readLines keeps one decoder per
// stream with names set, so repeated deployment strings are shared and
// values vectors are carved from slabs growing geometrically to maxSlab.
// Carved vectors use full slice expressions, so appending to one never
// writes into a neighbour: the aliasing contract of a frame's values slab.
type lineDecoder struct {
	// names interns deployment strings (nil: no interning).
	names map[string]string
	// slab is the unused tail of the current values slab; slabSize is that
	// slab's full length, the base of the next one's growth.
	slab     vecmat.Vector
	slabSize int
}

// newStreamDecoder returns the decoder one NDJSON stream reuses, its intern
// table sized for a handful of deployments.
func newStreamDecoder() *lineDecoder {
	return &lineDecoder{names: make(map[string]string, 8)}
}

// decode parses one line into a Reading (see DecodeLine).
func (d *lineDecoder) decode(line []byte) (Reading, error) {
	w, ok := d.scan(line)
	if !ok {
		var err error
		if w, err = decodeJSON(line); err != nil {
			return Reading{}, err
		}
	}
	return w.reading()
}

// scan decodes a canonical line; ok is false for any other line, which
// must take decodeJSON.
func (d *lineDecoder) scan(b []byte) (w wireReading, ok bool) {
	if len(b) < 2 || b[0] != '{' || b[len(b)-1] != '}' {
		return w, false
	}
	if len(b) == 2 {
		return w, true
	}
	var seen uint8
	for i := 1; ; {
		end := scanString(b, i)
		if end < 0 || end == len(b) || b[end] != ':' {
			return w, false
		}
		key := b[i+1 : end-1]
		i = end + 1
		var bit uint8
		switch string(key) {
		case "deployment":
			bit = 1 << 0
			if end = scanString(b, i); end < 0 {
				return w, false
			}
			w.Deployment = d.intern(b[i+1 : end-1])
		case "seq":
			bit = 1 << 1
			var err error
			if end = scanNumber(b, i); end < 0 {
				return w, false
			}
			if w.Seq, err = strconv.ParseUint(string(b[i:end]), 10, 64); err != nil {
				return w, false
			}
		case "sensor":
			bit = 1 << 2
			if end = scanNumber(b, i); end < 0 {
				return w, false
			}
			n, err := strconv.ParseInt(string(b[i:end]), 10, strconv.IntSize)
			if err != nil {
				return w, false
			}
			w.Sensor = int(n)
		case "time_s":
			bit = 1 << 3
			var err error
			if end = scanNumber(b, i); end < 0 {
				return w, false
			}
			if w.TimeS, err = strconv.ParseFloat(string(b[i:end]), 64); err != nil {
				return w, false
			}
		case "values":
			bit = 1 << 4
			if w.Values, end = d.scanValues(b, i); end < 0 {
				return w, false
			}
		default:
			return w, false
		}
		if seen&bit != 0 {
			return w, false
		}
		seen |= bit
		switch {
		case end == len(b)-1: // the closing '}'
			return w, true
		case end < len(b) && b[end] == ',':
			i = end + 1
		default:
			return w, false
		}
	}
}

// scanValues decodes the canonical number array starting at b[i] into a
// carved vector and returns the index just past its ']' (-1: not
// canonical).
func (d *lineDecoder) scanValues(b []byte, i int) ([]float64, int) {
	if i == len(b) || b[i] != '[' {
		return nil, -1
	}
	end := bytes.IndexByte(b[i:], ']')
	if end < 0 {
		return nil, -1
	}
	end += i
	if i++; i == end {
		return nil, end + 1
	}
	// Numbers hold no commas, so a canonical array has one more element
	// than it has commas before its ']'.
	vals := d.carve(bytes.Count(b[i:end], []byte{','}) + 1)
	for k := range vals {
		j := scanNumber(b, i)
		if j < 0 {
			return nil, -1
		}
		f, err := strconv.ParseFloat(string(b[i:j]), 64)
		if err != nil {
			return nil, -1
		}
		vals[k] = f
		sep := byte(',')
		if k == len(vals)-1 {
			sep = ']'
		}
		if b[j] != sep {
			return nil, -1
		}
		i = j + 1
	}
	return vals, end + 1
}

// carve returns an n-element vector cut from the current slab, starting a
// new slab when the tail is too short.
func (d *lineDecoder) carve(n int) vecmat.Vector {
	if len(d.slab) < n {
		d.slabSize = max(n, min(maxSlab, 2*d.slabSize))
		d.slab = make(vecmat.Vector, d.slabSize)
	}
	v := d.slab[:n:n]
	d.slab = d.slab[n:]
	return v
}

// intern returns b as a string, shared with earlier lines of the stream.
func (d *lineDecoder) intern(b []byte) string {
	if s, ok := d.names[string(b)]; ok {
		return s
	}
	s := string(b)
	if d.names != nil && len(d.names) < maxInterned {
		d.names[s] = s
	}
	return s
}

// scanString returns the index just past the canonical string starting at
// b[i]: a quoted run of ASCII with no escapes or control bytes. It returns
// -1 for anything else.
func scanString(b []byte, i int) int {
	if i == len(b) || b[i] != '"' {
		return -1
	}
	for j := i + 1; j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			return j + 1
		case c < 0x20 || c == '\\' || c >= 0x80:
			return -1
		}
	}
	return -1
}

// scanNumber returns the index just past the JSON number starting at b[i]
// (-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?), or -1 if none starts
// there.
func scanNumber(b []byte, i int) int {
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = skipDigits(b, i+1)
	default:
		return -1
	}
	if i < len(b) && b[i] == '.' {
		j := skipDigits(b, i+1)
		if j == i+1 {
			return -1
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := skipDigits(b, i)
		if j == i {
			return -1
		}
		i = j
	}
	return i
}

func skipDigits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}
