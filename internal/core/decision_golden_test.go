package core_test

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"
	"time"

	"sensorguard/internal/cluster"
	"sensorguard/internal/core"
	"sensorguard/internal/ingest"
	"sensorguard/internal/network"
	"sensorguard/internal/scenario"
	"sensorguard/internal/vecmat"
)

// collect retains every record it is handed.
type collect []core.DecisionRecord

func (c *collect) Record(rec core.DecisionRecord) { *c = append(*c, rec) }

type fanout []core.DecisionSink

func (f fanout) Record(rec core.DecisionRecord) {
	for _, s := range f {
		s.Record(rec)
	}
}

// TestDecisionLogMatchesEncodingJSONOnCorpus runs every scenario campaign
// through a detector whose decisions go both to a DecisionLog and to a
// collector, and requires the log's bytes to equal encoding/json's NDJSON
// of the collected records — the audit log's byte-identity on real
// provenance: open tracks, ⊥ symbols, quarantine lists and B^CO evidence.
func TestDecisionLogMatchesEncodingJSONOnCorpus(t *testing.T) {
	var records, evidence, symbols int
	for _, sc := range scenario.Corpus() {
		spec := sc.Spec()
		run, err := sc.Build(scenario.Config{Scenario: spec.Name, Days: spec.MinDays})
		if err != nil {
			t.Fatal(err)
		}
		for _, window := range []time.Duration{time.Hour, 5 * time.Minute} {
			var got bytes.Buffer
			var recs collect
			log := core.NewDecisionLog(&got)
			stepCampaign(t, run, window, fanout{log, &recs})
			if err := log.Err(); err != nil {
				t.Fatalf("%s: %v", spec.Name, err)
			}
			var want bytes.Buffer
			enc := json.NewEncoder(&want)
			for _, rec := range recs {
				if err := enc.Encode(rec); err != nil {
					t.Fatalf("%s: %v", spec.Name, err)
				}
				if rec.Evidence != nil {
					evidence++
				}
				for _, s := range rec.Sensors {
					if s.Symbol != "" {
						symbols++
					}
				}
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("%s at %v: audit log differs from encoding/json (%d vs %d bytes)",
					spec.Name, window, got.Len(), want.Len())
			}
			records += len(recs)
		}
	}
	if records == 0 || evidence == 0 || symbols == 0 {
		t.Fatalf("vacuous corpus run: %d records, %d with evidence, %d track symbols", records, evidence, symbols)
	}
}

// stepCampaign seeds a detector by k-means over the campaign's first day,
// as the serving pool bootstraps, and steps it through the whole stream.
func stepCampaign(t *testing.T, run *scenario.Run, window time.Duration, sink core.DecisionSink) {
	t.Helper()
	horizon := run.Readings[0].Time + 24*time.Hour
	var pts []vecmat.Vector
	for _, r := range run.Readings {
		if r.Time >= horizon {
			break
		}
		pts = append(pts, r.Values)
	}
	seeds, err := cluster.KMeans(pts, 6, rand.New(rand.NewSource(1)), 100)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(seeds)
	cfg.Window = window
	cfg.Decisions = sink
	det, err := core.NewDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wd, err := ingest.NewWindower(window, window)
	if err != nil {
		t.Fatal(err)
	}
	step := func(ws []network.Window) {
		for _, w := range ws {
			if _, err := det.Step(w); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, r := range run.Readings {
		step(wd.Add(r.Reading))
	}
	step(wd.Flush())
}
