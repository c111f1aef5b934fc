package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"sensorguard/internal/ingest"
)

// declared reads the metric lists BENCHMARK.json promises.
func declared(t *testing.T) (endToEnd, perLayer []struct{ Name, Unit string }) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	return doc.EndToEnd, doc.PerLayer
}

// TestSmokeEveryWorkload runs each workload briefly, untraced and traced,
// and requires every declared metric with its declared unit, a passing
// output check, and no failed operation.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("drives the pool for several seconds per workload")
	}
	outDir = t.TempDir()
	e2e, layer := declared(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := run(w.name, 3, 0.5, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := e2e
			if traced {
				want = layer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json declares %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w.name, traced, m.Name, got, m.Unit)
				}
			}
			if !traced {
				for _, m := range e2e {
					if res.Metrics[m.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v", w.name, m.Name, res.Metrics[m.Name].Value)
					}
				}
			}
		}
	}
}

// TestCheckCatchesBrokenOutput tampers with a real run's outcome: a
// corrupted report, a miscounted reading, a missing verdict and an unseen
// duplicate must each fail the output check.
func TestCheckCatchesBrokenOutput(t *testing.T) {
	outDir = t.TempDir()
	w, err := lookup("ndjson-http")
	if err != nil {
		t.Fatal(err)
	}
	pr, err := prepare(w, 5)
	if err != nil {
		t.Fatal(err)
	}
	m, err := runSession(pr, sessionOpts{seconds: 0.2, setups: 1, in: allInstruments, check: true, scratch: outDir})
	if err != nil {
		t.Fatal(err)
	}
	if m.checkErr != nil {
		t.Fatalf("clean run fails its check: %v", m.checkErr)
	}
	tamper := map[string]func(o *outcome){
		"corrupted report":   func(o *outcome) { o.got[3].report.Detected = !o.got[3].report.Detected },
		"miscounted reading": func(o *outcome) { o.sent++ },
		"missing verdict":    func(o *outcome) { o.got[0].verdicts-- },
		"unseen duplicate":   func(o *outcome) { o.wantDuplicates++ },
	}
	for name, fn := range tamper {
		o := m.outcome
		o.got = append([]served(nil), m.outcome.got...)
		fn(&o)
		if err := check(o); err == nil {
			t.Errorf("%s: output check passed", name)
		}
	}
}

// TestLineTemplateMatchesEncodeLine pins the shipper's NDJSON fast path to
// ingest.EncodeLine byte for byte, on readings with and without a seq.
func TestLineTemplateMatchesEncodeLine(t *testing.T) {
	pr, err := prepare(&workload{codec: codecNDJSON, window: 5 * time.Minute, build: corpusFeed}, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := &session{prepared: pr}
	c := &client{}
	f := pr.feed
	var sawZero bool
	for d, rs := range f.streams {
		for i, r := range rs {
			sawZero = sawZero || r.Seq == 0
			if i%97 != 0 && r.Seq != 0 {
				continue
			}
			got, err := s.encode(c, []entry{{int32(d), int32(i)}}, 3)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ingest.EncodeLine(f.reading(d, 3, i))
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want)+"\n" {
				t.Fatalf("template line %s, EncodeLine %s", got, want)
			}
		}
	}
	if !sawZero {
		t.Fatal("corpus has no Seq-0 readings to cover")
	}
}
