package ingest

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"sensorguard/internal/sensor"
	"sensorguard/internal/vecmat"
)

// BenchmarkDecodeLine measures the wire-to-Reading cost of one NDJSON line —
// the first stage every streamed reading pays. Allocations are reported
// because decode cost is pure overhead on the ingest hot path.
func BenchmarkDecodeLine(b *testing.B) {
	line := []byte(`{"deployment":"gdi-field-7","seq":12345,"sensor":3,"time_s":86400.5,"values":[12.5,94.0]}`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeLine(line); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeLineFallback is BenchmarkDecodeLine's reading with an
// escaped deployment name, which the single-pass decoder hands to
// encoding/json: the gap between the two is the fast path's saving.
func BenchmarkDecodeLineFallback(b *testing.B) {
	line := []byte(`{"deployment":"gdi-field\u002d7","seq":12345,"sensor":3,"time_s":86400.5,"values":[12.5,94.0]}`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeLine(line); err != nil {
			b.Fatal(err)
		}
	}
}

// ndjsonBody renders a servebench-shaped batch: n EncodeLine lines spread
// round-robin over 8 deployments, each carrying a seq and two attributes.
func ndjsonBody(tb testing.TB, n int) []byte {
	var body bytes.Buffer
	for i := 0; i < n; i++ {
		r := Reading{Deployment: fmt.Sprintf("gdi-%02d", i%8), Seq: uint64(i/8 + 1)}
		r.Sensor = i % 10
		r.Time = time.Duration(i) * 300 * time.Second
		r.Values = vecmat.Vector{12.5 + float64(i%7)/4, 94.0 - float64(i%5)/8}
		line, err := EncodeLine(r)
		if err != nil {
			tb.Fatal(err)
		}
		body.Write(line)
		body.WriteByte('\n')
	}
	return body.Bytes()
}

// discard is a Consumer that keeps nothing.
type discard struct{}

func (discard) Submit(Reading) error { return nil }

// BenchmarkReadStreamNDJSON measures ReadStream over one 500-line NDJSON
// body, the batch an HTTP shipper posts: line splitting, decode and
// submission to a consumer that keeps nothing.
func BenchmarkReadStreamNDJSON(b *testing.B) {
	const lines = 500
	body := ndjsonBody(b, lines)
	r := bytes.NewReader(body)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(body)
		st, err := ReadStream(r, discard{}, StreamOptions{})
		if err != nil || st.Accepted != lines {
			b.Fatalf("stats %+v err %v", st, err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*lines), "ns/line")
}

// BenchmarkWindowerAdd measures the streaming windower's per-reading cost on
// an in-order stream (the common case): bucket append, watermark advance,
// and the periodic window emission every 12 readings.
func BenchmarkWindowerAdd(b *testing.B) {
	wd, err := NewWindower(time.Hour, 30*time.Minute)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := sensor.Reading{
			Sensor: i % 10,
			Time:   time.Duration(i) * 5 * time.Minute,
			Values: vecmat.Vector{12.5, 94.0},
		}
		wd.Add(r)
	}
}
