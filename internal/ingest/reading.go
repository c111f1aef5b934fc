// Package ingest is the live edge of the serving system: the wire codecs for
// streaming sensor readings (NDJSON or binary frames over HTTP POST or a TCP
// socket), the out-of-order-tolerant windower that assembles observation
// windows from unordered arrival using watermarks with bounded lateness, and
// the listener plumbing that feeds decoded readings to a Consumer (the shard
// pool in internal/fleet).
package ingest

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"time"

	"sensorguard/internal/obs"
	"sensorguard/internal/sensor"
	"sensorguard/internal/vecmat"
)

// DefaultDeployment names readings that arrive without an explicit
// deployment key.
const DefaultDeployment = "default"

// maxSeconds is the time.Duration range in seconds (~292 years of deployment
// uptime), the bound a rejected time_s is reported against.
const maxSeconds = float64(math.MaxInt64) / float64(time.Second)

// Reading is one wire message: a sensor reading tagged with the deployment
// it belongs to. Deployment is the shard key — every reading of a deployment
// is processed by the same detector worker, in arrival order.
type Reading struct {
	// Deployment identifies the sensor network the reading belongs to.
	Deployment string
	// Seq is an optional producer-assigned sequence number, strictly
	// increasing per deployment (0 = unassigned). Consumers that persist
	// state use it to deduplicate retransmissions: a producer that never
	// got an ACK can safely resend a batch, and readings with Seq at or
	// below the deployment's high-water mark are dropped as duplicates.
	Seq uint64
	// Trace is the span context stamped on this reading by a traced
	// listener (one reading per sampled stream carries it — see
	// StreamOptions.Tracer). It rides alongside the payload, not on the
	// wire: batch headers carry trace context between processes.
	Trace obs.SpanContext
	// Reading is the ⟨t, p⟩ message itself.
	sensor.Reading
}

// wireReading is the NDJSON schema (see docs/SERVING.md):
//
//	{"deployment":"gdi","sensor":3,"time_s":300.0,"values":[12.5,94.0]}
type wireReading struct {
	Deployment string    `json:"deployment,omitempty"`
	Seq        uint64    `json:"seq,omitempty"`
	Sensor     int       `json:"sensor"`
	TimeS      float64   `json:"time_s"`
	Values     []float64 `json:"values"`
}

// InvalidReadingError reports a reading that fails Reading.Validate.
type InvalidReadingError struct {
	// Reason names the failed check.
	Reason string
}

func (e *InvalidReadingError) Error() string { return "ingest: invalid reading: " + e.Reason }

var (
	errNegativeTime = &InvalidReadingError{Reason: "negative time"}
	errNoValues     = &InvalidReadingError{Reason: "no values"}
	errNonFinite    = &InvalidReadingError{Reason: "non-finite value"}
)

// Validate applies the semantic checks both codecs and the fleet pool share:
// a non-negative time and at least one value, every value finite. NaN or
// Inf would silently poison the detector's running means, and the durable
// journal's replay stops at an entry with no values or a negative time, so
// a reading failing here is never acknowledged. The error is an
// *InvalidReadingError.
func (r Reading) Validate() error {
	if r.Time < 0 {
		return errNegativeTime
	}
	if len(r.Values) == 0 {
		return errNoValues
	}
	for _, v := range r.Values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return errNonFinite
		}
	}
	return nil
}

// DecodeLine parses one NDJSON line into a Reading, checking that the
// timestamp is finite and representable and that the reading passes
// Validate. A line in the form EncodeLine writes takes the single-pass
// decoder; any other line is decoded by encoding/json, with the same result.
func DecodeLine(line []byte) (Reading, error) {
	var d lineDecoder
	return d.decode(line)
}

// decodeJSON is the encoding/json path: the only decoder for non-canonical
// lines (see lineDecoder) and the reference the single-pass decoder is
// tested against.
func decodeJSON(line []byte) (wireReading, error) {
	var w wireReading
	if err := json.Unmarshal(line, &w); err != nil {
		return wireReading{}, fmt.Errorf("ingest: bad JSON: %w", err)
	}
	return w, nil
}

// reading applies the checks both NDJSON decode paths share: a timestamp
// that time.Duration can hold, the default deployment, and Validate.
func (w wireReading) reading() (Reading, error) {
	// The bound is on the nanosecond product: maxSeconds itself times 1e9
	// rounds to 2^63, whose conversion to time.Duration is
	// implementation-defined (negative on amd64, saturated on arm64).
	ns := w.TimeS * float64(time.Second)
	if math.IsNaN(w.TimeS) || w.TimeS < 0 || ns >= 1<<63 {
		return Reading{}, fmt.Errorf("ingest: time_s %v outside [0, %g]", w.TimeS, maxSeconds)
	}
	dep := w.Deployment
	if dep == "" {
		dep = DefaultDeployment
	}
	r := Reading{
		Deployment: dep,
		Seq:        w.Seq,
		Reading: sensor.Reading{
			Sensor: w.Sensor,
			Time:   time.Duration(ns),
			Values: vecmat.Vector(w.Values),
		},
	}
	if err := r.Validate(); err != nil {
		return Reading{}, err
	}
	return r, nil
}

// EncodeLine renders a Reading as one NDJSON line (no trailing newline).
func EncodeLine(r Reading) ([]byte, error) {
	return json.Marshal(wireReading{
		Deployment: r.Deployment,
		Seq:        r.Seq,
		Sensor:     r.Sensor,
		TimeS:      r.Time.Seconds(),
		Values:     r.Values,
	})
}

// Consumer accepts decoded readings — in practice the fleet.Pool. Submit may
// block (backpressure) or drop (load shedding) per the consumer's policy;
// ErrDropped reports a shed reading, any other error a terminal condition.
type Consumer interface {
	Submit(Reading) error
}

// ErrDropped reports that a reading was shed by the consumer's overflow
// policy rather than enqueued.
var ErrDropped = errors.New("ingest: reading dropped (queue full)")
