package ingest

import (
	"bytes"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"

	"sensorguard/internal/vecmat"
)

// referenceDecode is DecodeLine with encoding/json as the only decoder.
func referenceDecode(line []byte) (Reading, error) {
	w, err := decodeJSON(line)
	if err != nil {
		return Reading{}, err
	}
	return w.reading()
}

// takesFastPath reports whether line decodes without encoding/json.
func takesFastPath(line []byte) bool {
	var d lineDecoder
	_, ok := d.scan(line)
	return ok
}

// sameDecode reports whether two decode outcomes agree: equal error text,
// or equal readings with values compared bitwise.
func sameDecode(a Reading, aerr error, b Reading, berr error) bool {
	if aerr != nil || berr != nil {
		return aerr != nil && berr != nil && aerr.Error() == berr.Error()
	}
	return readingEqual(a, b)
}

// FuzzDecodeLine checks DecodeLine against encoding/json on arbitrary
// lines: the same Reading (values bitwise) or the same error text.
func FuzzDecodeLine(f *testing.F) {
	for _, r := range encodeLineReadings() {
		if line, err := EncodeLine(r); err == nil {
			f.Add(line)
		}
	}
	for _, line := range rejectLines {
		f.Add([]byte(line))
	}
	for _, c := range nonCanonicalLines {
		f.Add([]byte(c.line))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		got, err := DecodeLine(line)
		want, werr := referenceDecode(line)
		if !sameDecode(got, err, want, werr) {
			t.Fatalf("line %q\ndecoded  %+v, %v\nexpected %+v, %v", line, got, err, want, werr)
		}
	})
}

// encodeLineReadings covers the shapes EncodeLine writes: seq present or
// omitted, default deployment, negative sensors, and floats in both of
// encoding/json's formats.
func encodeLineReadings() []Reading {
	mk := func(dep string, seq uint64, sensor int, t time.Duration, values ...float64) Reading {
		r := Reading{Deployment: dep, Seq: seq}
		r.Sensor, r.Time, r.Values = sensor, t, vecmat.Vector(values)
		return r
	}
	return []Reading{
		mk("gdi", 0, 3, 300*time.Second, 12.5, 94),
		mk("", 7, 0, 0, 1),
		mk("gdi-field-7", 12345, -4, 86400*time.Second+500*time.Millisecond, math.Copysign(0, -1), 1e-7, 1e21),
		mk("a", math.MaxUint64, math.MaxInt32, time.Nanosecond, -1e-300, 5e-324, math.MaxFloat64),
		mk("x y~!", 1, -math.MaxInt32, 1<<62, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8),
	}
}

// nonCanonicalLines are valid lines outside the canonical form.
var nonCanonicalLines = []struct{ name, line string }{
	{"escaped deployment", `{"deployment":"gdi\u002dx","sensor":1,"time_s":5,"values":[1]}`},
	{"capitalised key", `{"deployment":"gdi","Sensor":4,"time_s":5,"values":[1]}`},
	{"unknown field", `{"deployment":"gdi","sensor":1,"time_s":5,"values":[1],"unit":"C"}`},
	{"duplicate key", `{"deployment":"gdi","sensor":1,"sensor":2,"time_s":5,"values":[1]}`},
	{"null deployment", `{"deployment":null,"sensor":1,"time_s":5,"values":[1]}`},
	{"extra whitespace", " {\t\"deployment\" : \"gdi\" ,\"sensor\": 1,\r\n\"time_s\":5 , \"values\" : [ 1 , 2 ] } "},
	{"utf-8 deployment", `{"deployment":"gdi-Zürich","sensor":1,"time_s":5,"values":[1]}`},
}

func TestDecodeLineNonCanonicalMatchesJSON(t *testing.T) {
	for _, c := range nonCanonicalLines {
		line := []byte(c.line)
		got, err := DecodeLine(line)
		if err != nil {
			t.Errorf("%s: rejected: %v", c.name, err)
			continue
		}
		want, werr := referenceDecode(line)
		if !sameDecode(got, err, want, werr) {
			t.Errorf("%s: decoded %+v, encoding/json %+v (%v)", c.name, got, want, werr)
		}
		if takesFastPath(line) {
			t.Errorf("%s: took the fast path", c.name)
		}
	}
}

// TestEncodeLineTakesFastPath checks that every line EncodeLine writes for a
// deployment it renders without escapes decodes in the single pass, to the
// reading encoding/json gives.
func TestEncodeLineTakesFastPath(t *testing.T) {
	readings := encodeLineReadings()
	rng := rand.New(rand.NewSource(1))
	// Printable ASCII that encoding/json writes unescaped.
	const alphabet = " !#$%'()*+,-./0123456789:;=?@ABCDEFGHIJKLMNOPQRSTUVWXYZ[]^_`abcdefghijklmnopqrstuvwxyz{|}~"
	for i := 0; i < 2000; i++ {
		dep := make([]byte, rng.Intn(12))
		for j := range dep {
			dep[j] = alphabet[rng.Intn(len(alphabet))]
		}
		r := Reading{Deployment: string(dep), Seq: rng.Uint64() >> rng.Intn(64)}
		r.Sensor = rng.Intn(1<<20) - 1<<19
		r.Time = time.Duration(rng.Int63() >> rng.Intn(63))
		r.Values = make(vecmat.Vector, 1+rng.Intn(6))
		for j := range r.Values {
			r.Values[j] = math.Float64frombits(rng.Uint64())
			if math.IsNaN(r.Values[j]) || math.IsInf(r.Values[j], 0) {
				r.Values[j] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
			}
		}
		readings = append(readings, r)
	}
	for _, r := range readings {
		line, err := EncodeLine(r)
		if err != nil {
			t.Fatal(err)
		}
		if !takesFastPath(line) {
			t.Fatalf("EncodeLine output falls back: %s", line)
		}
		got, err := DecodeLine(line)
		want, werr := referenceDecode(line)
		if err != nil || !sameDecode(got, err, want, werr) {
			t.Fatalf("line %s: decoded %+v (%v), encoding/json %+v (%v)", line, got, err, want, werr)
		}
	}
}

// TestDecodeLineTimeBoundary pins the largest accepted time_s. maxSeconds
// itself times 1e9 rounds to 2^63, which time.Duration cannot hold, so it
// is rejected on every platform; the next float below is accepted. Both
// decode paths share the check.
func TestDecodeLineTimeBoundary(t *testing.T) {
	below := math.Nextafter(maxSeconds, 0)
	for _, dep := range []string{"gdi", `gd\u0069`} { // fast path, fallback
		line := func(ts float64) []byte {
			return []byte(`{"deployment":"` + dep + `","sensor":1,"time_s":` + strconv.FormatFloat(ts, 'f', -1, 64) + `,"values":[1]}`)
		}
		if _, err := DecodeLine(line(maxSeconds)); err == nil || !strings.Contains(err.Error(), "outside [0, ") {
			t.Errorf("%s: time_s %v: err %v, want the range error", dep, maxSeconds, err)
		}
		r, err := DecodeLine(line(below))
		if err != nil {
			t.Fatalf("%s: time_s %v rejected: %v", dep, below, err)
		}
		if r.Time != 9223372036854774784 {
			t.Errorf("%s: time_s %v decoded to %d ns", dep, below, int64(r.Time))
		}
	}
}

// TestStreamDecoderCarvesDisjointValues checks the slab aliasing contract:
// vectors carved for successive lines share slabs, but appending to one
// never writes into another. It also checks the intern table's bound.
func TestStreamDecoderCarvesDisjointValues(t *testing.T) {
	d := newStreamDecoder()
	var got []Reading
	for i := 0; i < 40; i++ {
		r, err := d.decode([]byte(`{"deployment":"gdi","sensor":1,"time_s":5,"values":[` + strconv.Itoa(i) + `]}`))
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, r)
	}
	for i := range got {
		_ = append(got[i].Values, -1)
	}
	for i, r := range got {
		if len(r.Values) != 1 || r.Values[0] != float64(i) {
			t.Fatalf("line %d values %v after appends to the others", i, r.Values)
		}
	}
	if len(d.names) != 1 {
		t.Errorf("interned %d names, want 1", len(d.names))
	}
	for i := 0; i < 2*maxInterned; i++ {
		if _, err := d.decode([]byte(`{"deployment":"d` + strconv.Itoa(i) + `","sensor":1,"time_s":5,"values":[1]}`)); err != nil {
			t.Fatal(err)
		}
	}
	if len(d.names) != maxInterned {
		t.Errorf("interned %d names, want the bound %d", len(d.names), maxInterned)
	}
}

// maxReadStreamAllocs bounds ReadStream's allocations over one 500-line,
// 8-deployment NDJSON body: the buffered reader, the line buffer's growth,
// the intern table and its 8 names, and a values slab per 256 lines once
// the slabs reach full size. Measured at 23; a single allocation per line
// would add 500 (the encoding/json decoder made about 9 per line).
const maxReadStreamAllocs = 24

func TestReadStreamNDJSONAllocs(t *testing.T) {
	body := ndjsonBody(t, 500)
	r := bytes.NewReader(body)
	allocs := testing.AllocsPerRun(20, func() {
		r.Reset(body)
		if st, err := ReadStream(r, discard{}, StreamOptions{}); err != nil || st.Accepted != 500 {
			t.Fatalf("stats %+v err %v", st, err)
		}
	})
	if allocs > maxReadStreamAllocs {
		t.Errorf("ReadStream allocated %.0f times over a 500-line body, bound %d", allocs, maxReadStreamAllocs)
	}
}
