package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"testing"

	"sensorguard/internal/classify"
	"sensorguard/internal/vecmat"
)

// encodeBoth writes rec through a DecisionLog and through json.Encoder and
// fails unless the bytes and the (sticky) errors agree.
func encodeBoth(t *testing.T, rec DecisionRecord) {
	t.Helper()
	var got, want bytes.Buffer
	log := NewDecisionLog(&got)
	log.Record(rec)
	wantErr := json.NewEncoder(&want).Encode(rec)
	gotErr := log.Err()
	if (gotErr == nil) != (wantErr == nil) ||
		(gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("error %v, encoding/json gives %v", gotErr, wantErr)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("appender wrote\n%s\nencoding/json writes\n%s", got.Bytes(), want.Bytes())
	}
}

// fuzzRecord builds a record whose every field is driven by the inputs:
// strings land in the deployment, trace ID, sensor symbol and verdict;
// floats in every float-valued field; shape's bits pick optional parts
// (skipped, evidence, nil versus empty Delta, empty slices).
func fuzzRecord(dep, trace, sym string, window int, x, y, z float64, shape uint8) DecisionRecord {
	rec := DecisionRecord{
		Deployment:      dep,
		Window:          window,
		TraceID:         trace,
		Skipped:         shape&1 != 0,
		Observable:      window % 7,
		Correct:         -window,
		ObservableAttrs: vecmat.Vector{x, y},
		CorrectAttrs:    vecmat.Vector{z},
		Clusters:        []ClusterSize{{State: 1, Size: window}, {State: -2, Size: 0}},
		Sensors: []SensorDecision{
			{Sensor: 3, Nearest: 1, RawAlarm: true, TrackOpen: shape&2 != 0, Symbol: sym},
			{Sensor: 4, Nearest: 2, FilteredAlarm: true},
		},
		RawAlarms:      window & 3,
		FilteredAlarms: 1,
		Quarantined:    []int{3, window},
	}
	if shape&4 != 0 {
		rec.ObservableAttrs, rec.Clusters, rec.Sensors, rec.Quarantined = nil, []ClusterSize{}, nil, []int{}
	}
	if shape&8 == 0 {
		return rec
	}
	ev := &DecisionEvidence{
		Verdict:       sym,
		Confidence:    x,
		RowViolations: []vecmat.OrthoViolation{{I: 1, J: 1, Dot: y}, {I: 0, J: 2, Dot: z}},
		ColViolations: []vecmat.OrthoViolation{{I: 5, J: 6, Dot: x * y}},
		Associations:  []classify.Association{{Hidden: 1, Symbol: 2, Mass: z}},
		ActiveHidden:  []int{1, 2},
		Divergence: []AttributeDivergence{
			{Hidden: 1, Symbol: 2, Delta: vecmat.Vector{x - z, y}, AllDisplaced: true},
			{Hidden: 2, Symbol: 2, Delta: vecmat.Vector{}},
		},
	}
	if shape&16 != 0 {
		ev.Divergence[1].Delta = nil
	}
	if shape&32 != 0 {
		ev.RowViolations, ev.ColViolations, ev.Associations, ev.ActiveHidden = nil, nil, nil, nil
	}
	rec.Evidence = ev
	return rec
}

// FuzzDecisionRecordJSON checks the hand-written audit-log encoder against
// encoding/json on arbitrary records: HTML-sensitive, control, non-ASCII and
// invalid UTF-8 strings, floats at the exponent-format cut-offs, negative
// zero, and non-finite values (which must fail with encoding/json's error).
func FuzzDecisionRecordJSON(f *testing.F) {
	f.Add("gdi", "", "⊥", 7, 12.5, 94.0, 0.1, uint8(0))
	f.Add(`<a href="x">&amp;</a>`, "0af7651916cd43dd8448eb211c80319c", "12", 48, 1e-7, 1e21, math.Copysign(0, -1), uint8(8))
	f.Add("dép\u2028\u2029\x00\x1f\x7f\b\f\n\r\t\\", "\xff\xfe", "\xe2\x8a", -1, 1e-6, 999999999999999999999.0, 5e-324, uint8(8|16))
	f.Add("", "", "", 0, 1.7976931348623157e308, -1e-300, 123456789.123456789, uint8(1|2|4|8|32))
	f.Add("nan", "", "", 3, math.NaN(), 0.5, 0.5, uint8(8))
	f.Add("inf", "", "", 3, 0.5, math.Inf(-1), 0.5, uint8(0))
	f.Fuzz(func(t *testing.T, dep, trace, sym string, window int, x, y, z float64, shape uint8) {
		encodeBoth(t, fuzzRecord(dep, trace, sym, window, x, y, z, shape))
	})
}

// TestDecisionRecordJSONCoversEveryField fills every field of a record —
// found by reflection, so a field added to the record types later is
// included — with a non-zero value and compares the appender with
// encoding/json. A field the appender does not know fails here.
func TestDecisionRecordJSONCoversEveryField(t *testing.T) {
	var rec DecisionRecord
	n := 0
	fill(reflect.ValueOf(&rec).Elem(), &n)
	if rec.Evidence == nil || len(rec.Evidence.Divergence) == 0 {
		t.Fatal("filler left the evidence empty")
	}
	encodeBoth(t, rec)
}

// fill sets every exported field reachable from v to a distinct non-zero
// value; slices get two elements, pointers a filled target.
func fill(v reflect.Value, n *int) {
	*n++
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fill(v.Field(i), n)
			}
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fill(v.Elem(), n)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		fill(v.Index(0), n)
		fill(v.Index(1), n)
	case reflect.String:
		v.SetString("s<" + string(rune('a'+*n%26)) + ">")
	case reflect.Int:
		v.SetInt(int64(*n))
	case reflect.Float64:
		v.SetFloat(float64(*n) / 7)
	case reflect.Bool:
		v.SetBool(true)
	default:
		panic("fill: unhandled kind " + v.Kind().String())
	}
}

// TestDecisionLogStickyWriteError pins that a failed write is kept and
// later records are dropped without being written.
func TestDecisionLogStickyWriteError(t *testing.T) {
	w := &failingWriter{}
	log := NewDecisionLog(w)
	log.Record(DecisionRecord{Window: 1})
	log.Record(DecisionRecord{Window: 2})
	if log.Err() != errWriteFailed || w.calls != 1 {
		t.Fatalf("err %v after %d writes, want %v after 1", log.Err(), w.calls, errWriteFailed)
	}
}

var errWriteFailed = errors.New("write failed")

type failingWriter struct{ calls int }

func (w *failingWriter) Write([]byte) (int, error) {
	w.calls++
	return 0, errWriteFailed
}
