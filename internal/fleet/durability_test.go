package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"sensorguard/internal/chaos"
	"sensorguard/internal/gdi"
	"sensorguard/internal/ingest"
	"sensorguard/internal/obs"
	"sensorguard/internal/sensor"
)

// durableConfig is the pool configuration every recovery test shares; the
// aggressive EveryN forces many checkpoint/rotation cycles per run.
func durableConfig(dir string, recover bool) Config {
	return Config{
		Shards: 2,
		Seed:   1,
		Durability: Durability{
			Dir:     dir,
			EveryN:  64,
			Recover: recover,
		},
	}
}

// referenceReports runs the trace uninterrupted through a pool WITHOUT
// durability and returns each deployment's final report bytes — the ground
// truth every crash variant must reproduce exactly.
func referenceReports(t *testing.T, tr gdi.Trace, deployments []string) map[string][]byte {
	t.Helper()
	pool, err := New(Config{Shards: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	submitInterleaved(t, pool, deployments, tr, 0, len(tr.Readings))
	pool.Drain()
	return collectReports(t, pool, deployments)
}

// submitInterleaved submits readings[lo:hi] round-robin across deployments,
// stamping each with its wire sequence (index+1) so dedup is exercised.
func submitInterleaved(t *testing.T, p *Pool, deployments []string, tr gdi.Trace, lo, hi int) {
	t.Helper()
	for i := lo; i < hi; i++ {
		for _, dep := range deployments {
			if err := p.Submit(ingest.Reading{
				Deployment: dep,
				Seq:        uint64(i + 1),
				Reading:    tr.Readings[i],
			}); err != nil {
				t.Fatalf("submit %s reading %d: %v", dep, i, err)
			}
		}
	}
}

func collectReports(t *testing.T, p *Pool, deployments []string) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte, len(deployments))
	for _, dep := range deployments {
		rep, err := p.Report(dep)
		if err != nil {
			t.Fatalf("report %s: %v", dep, err)
		}
		raw, err := rep.MarshalIndentJSON()
		if err != nil {
			t.Fatal(err)
		}
		out[dep] = raw
	}
	return out
}

// TestCrashRecoveryEquivalence is the durability tentpole guarantee: kill the
// pool mid-stream (no drain, no final checkpoint — exactly what SIGKILL
// leaves), recover a fresh pool from the same directory, stream the rest, and
// the final reports must be byte-identical to an uninterrupted run's. Crash
// points cover a deployment still buffering its bootstrap horizon, one just
// past it, and one deep into the stream with open tracks and checkpoints
// behind it.
func TestCrashRecoveryEquivalence(t *testing.T) {
	tr := stuckTrace(t, 7)
	deployments := []string{"alpha", "beta", "gamma"}
	want := referenceReports(t, tr, deployments)

	n := len(tr.Readings)
	cuts := map[string]int{
		"during-bootstrap": n / 10,     // inside the 24h buffering horizon
		"mid-stream":       n / 2,      // detectors live, tracks open
		"near-end":         9 * n / 10, // quarantine state accumulated
	}
	for name, cut := range cuts {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()

			first, err := New(durableConfig(dir, false))
			if err != nil {
				t.Fatal(err)
			}
			submitInterleaved(t, first, deployments, tr, 0, cut)
			first.abort() // crash: no drain, no final checkpoint

			second, err := New(durableConfig(dir, true))
			if err != nil {
				t.Fatalf("recover: %v", err)
			}
			submitInterleaved(t, second, deployments, tr, cut, n)
			second.Drain()

			got := collectReports(t, second, deployments)
			for _, dep := range deployments {
				if !bytes.Equal(got[dep], want[dep]) {
					t.Errorf("deployment %s: recovered report differs from uninterrupted run:\n--- recovered\n%s\n--- reference\n%s",
						dep, got[dep], want[dep])
				}
			}
		})
	}
}

// TestCrashRecoveryRetransmission covers the producer-retry path: after the
// crash, the producer replays a chunk it already sent (same wire sequences).
// The journal-recovered state must skip the duplicates and the final report
// must still match the uninterrupted run.
func TestCrashRecoveryRetransmission(t *testing.T) {
	tr := stuckTrace(t, 5)
	deployments := []string{"alpha", "beta"}
	want := referenceReports(t, tr, deployments)

	dir := t.TempDir()
	n := len(tr.Readings)
	cut := n / 2

	first, err := New(durableConfig(dir, false))
	if err != nil {
		t.Fatal(err)
	}
	submitInterleaved(t, first, deployments, tr, 0, cut)
	first.abort()

	reg := obs.NewRegistry()
	cfg := durableConfig(dir, true)
	cfg.Metrics = reg
	second, err := New(cfg)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	// Producer retries conservatively from before the crash point.
	retry := cut - cut/4
	submitInterleaved(t, second, deployments, tr, retry, n)
	second.Drain()

	got := collectReports(t, second, deployments)
	for _, dep := range deployments {
		if !bytes.Equal(got[dep], want[dep]) {
			t.Errorf("deployment %s: report with retransmissions differs from reference", dep)
		}
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "duplicates_total") {
		t.Error("metrics missing duplicates counter")
	}
}

// TestConcurrentCrashRecoveryKeepsJournalOrder is the regression test for
// the group-commit apply order. Concurrent producers share one shard, so
// their journal records group-commit; each streams its own deployment with
// wire sequences.
//
// The first pool takes no checkpoints, so its journal stays whole: the
// readings its worker applied must be exactly the journal's first records,
// in sequence order. Later pools recover from the previous crash,
// retransmit every stream from the start, checkpoint often and crash again.
// Applying a batch out of journal order lets a checkpoint at sequence S
// precede the apply of a lower sequence; recovery then skips that reading,
// and its retransmission is discarded as a duplicate of the producer's later
// reading already replayed. With a bootstrap horizon longer than the trace,
// each deployment's bootstrap buffer is the exact record of what was
// applied, so after a final recovery it must equal the readings sent, in
// order — as in an uninterrupted run.
func TestConcurrentCrashRecoveryKeepsJournalOrder(t *testing.T) {
	const producers, n = 8, 600
	tr := stuckTrace(t, 2)
	dir := t.TempDir()
	var applied []journalEntry // worker-owned until abort returns
	var p *Pool
	for round, hi := range []int{n / 2, 3 * n / 4, n, 0} {
		var err error
		p, err = New(Config{
			Shards:    1,
			Seed:      1,
			Bootstrap: 1000 * time.Hour,
			Durability: Durability{Dir: dir, Interval: time.Hour,
				EveryN: min(round, 1) * 32, Recover: round > 0},
			panicOn: func(r ingest.Reading) bool {
				applied = append(applied, journalEntry{Deployment: r.Deployment, WireSeq: r.Seq})
				return false
			},
		})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		var wg sync.WaitGroup
		for g := range producers {
			wg.Add(1)
			go func(dep string) {
				defer wg.Done()
				for i := 0; i < hi; i++ {
					err := p.Submit(ingest.Reading{Deployment: dep, Seq: uint64(i + 1), Reading: tr.Readings[i]})
					if err != nil {
						t.Errorf("submit %s reading %d: %v", dep, i, err)
						return
					}
				}
			}(fmt.Sprintf("producer-%d", g))
		}
		wg.Wait()
		p.abort()
		if round > 0 {
			continue
		}
		journal, err := readJournal(chaos.OS, journalPath(shardDir(dir, 0), 0), 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(journal) != producers*hi || len(applied) > len(journal) {
			t.Fatalf("journaled %d, applied %d of %d readings", len(journal), len(applied), producers*hi)
		}
		for i, a := range applied {
			if j := journal[i]; a.Deployment != j.Deployment || a.WireSeq != j.WireSeq {
				t.Fatalf("apply %d was %s/%d, journal sequence %d holds %s/%d",
					i, a.Deployment, a.WireSeq, j.Seq, j.Deployment, j.WireSeq)
			}
		}
	}
	for g := range producers {
		dep := fmt.Sprintf("producer-%d", g)
		d := p.shards[0].deployments[dep]
		if d == nil || len(d.pending) != n {
			got := 0
			if d != nil {
				got = len(d.pending)
			}
			t.Errorf("%s applied %d readings, want %d", dep, got, n)
			continue
		}
		for i, r := range d.pending {
			if want := tr.Readings[i]; r.Time != want.Time || r.Sensor != want.Sensor {
				t.Errorf("%s reading %d is (sensor %d, %s), want (sensor %d, %s)",
					dep, i, r.Sensor, r.Time, want.Sensor, want.Time)
				break
			}
		}
	}
}

// TestRecoveryToleratesTornTail truncates the newest journal segment
// mid-record (what a crash during an append leaves) and corrupts the newest
// checkpoint outright; recovery must fall back to the previous checkpoint
// plus the intact journal prefix without error, and resubmitting from the
// surviving sequence must converge to the reference report.
func TestRecoveryToleratesTornTail(t *testing.T) {
	tr := stuckTrace(t, 5)
	deployments := []string{"alpha", "beta"}
	want := referenceReports(t, tr, deployments)

	dir := t.TempDir()
	n := len(tr.Readings)
	cut := 3 * n / 4

	first, err := New(durableConfig(dir, false))
	if err != nil {
		t.Fatal(err)
	}
	submitInterleaved(t, first, deployments, tr, 0, cut)
	first.abort()

	// Damage every shard directory: tear the newest journal's tail and
	// flip bytes in the newest checkpoint.
	for shardID := 0; shardID < 2; shardID++ {
		sdir := shardDir(dir, shardID)
		segs, err := listJournals(chaos.OS, sdir)
		if err != nil || len(segs) == 0 {
			t.Fatalf("shard %d journals: %v (%d)", shardID, err, len(segs))
		}
		newest := segs[len(segs)-1].path
		data, err := os.ReadFile(newest)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(newest, data[:len(data)-len(data)/4], 0o644); err != nil {
			t.Fatal(err)
		}
		ckpts, err := listCheckpoints(chaos.OS, sdir)
		if err != nil {
			t.Fatal(err)
		}
		if len(ckpts) > 1 { // keep at least one valid checkpoint to fall back to
			cdata, err := os.ReadFile(ckpts[len(ckpts)-1].path)
			if err != nil {
				t.Fatal(err)
			}
			for i := len(cdata) / 2; i < len(cdata)/2+32 && i < len(cdata); i++ {
				cdata[i] ^= 0xff
			}
			if err := os.WriteFile(ckpts[len(ckpts)-1].path, cdata, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}

	second, err := New(durableConfig(dir, true))
	if err != nil {
		t.Fatalf("recover from damaged state: %v", err)
	}
	// The damage lost an unknown tail of accepted readings; the producer
	// replays generously from well before the crash (wire-seq dedup skips
	// what survived).
	submitInterleaved(t, second, deployments, tr, cut/2, n)
	second.Drain()

	got := collectReports(t, second, deployments)
	for _, dep := range deployments {
		if !bytes.Equal(got[dep], want[dep]) {
			t.Errorf("deployment %s: report after torn-tail recovery differs from reference", dep)
		}
	}
}

// TestRecoverEmptyDir pins down that Recover against a directory with no
// prior state is a plain fresh start.
func TestRecoverEmptyDir(t *testing.T) {
	tr := stuckTrace(t, 2)
	deployments := []string{"alpha"}
	want := referenceReports(t, tr, deployments)

	pool, err := New(durableConfig(t.TempDir(), true))
	if err != nil {
		t.Fatal(err)
	}
	submitInterleaved(t, pool, deployments, tr, 0, len(tr.Readings))
	pool.Drain()
	got := collectReports(t, pool, deployments)
	if !bytes.Equal(got["alpha"], want["alpha"]) {
		t.Error("fresh durable run differs from reference")
	}
}

// TestRecoveryRejectsConfigMismatch: state written under one shard count or
// window must not silently load into a pool configured differently.
func TestRecoveryRejectsConfigMismatch(t *testing.T) {
	tr := stuckTrace(t, 2)
	dir := t.TempDir()
	first, err := New(durableConfig(dir, false))
	if err != nil {
		t.Fatal(err)
	}
	submitInterleaved(t, first, []string{"alpha"}, tr, 0, len(tr.Readings)/2)
	first.abort()

	bad := durableConfig(dir, true)
	bad.Shards = 3
	if _, err := New(bad); err == nil {
		t.Error("recovery accepted a shard-count mismatch")
	}

	badWindow := durableConfig(dir, true)
	badWindow.Window = 30 * time.Minute
	if _, err := New(badWindow); err == nil {
		t.Error("recovery accepted a window mismatch")
	}
}

// TestPanicQuarantinesDeployment injects a panic while handling one
// deployment's stream and checks the blast radius: that deployment is
// quarantined with a typed status, every other deployment on the same shard
// keeps running to the correct report, and the supervisor's panic/restart
// counters tick.
func TestPanicQuarantinesDeployment(t *testing.T) {
	tr := stuckTrace(t, 5)
	deployments := []string{"alpha", "beta", "victim"}
	want := referenceReports(t, tr, deployments)

	reg := obs.NewRegistry()
	boom := tr.Readings[len(tr.Readings)/2].Time
	pool, err := New(Config{
		Shards:  1, // one worker owns everything: maximal blast radius if isolation fails
		Seed:    1,
		Metrics: reg,
		panicOn: func(r ingest.Reading) bool {
			return r.Deployment == "victim" && r.Time >= boom
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	submitInterleaved(t, pool, deployments, tr, 0, len(tr.Readings))
	pool.Drain()

	st, err := pool.Status("victim")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateQuarantined {
		t.Errorf("victim state %q, want %q", st.State, StateQuarantined)
	}
	if st.Err == "" || !strings.Contains(st.Err, "panic") {
		t.Errorf("victim error %q does not identify the panic", st.Err)
	}
	if _, err := pool.Report("victim"); err == nil {
		t.Error("quarantined deployment still serves reports")
	}

	got := collectReports(t, pool, []string{"alpha", "beta"})
	for _, dep := range []string{"alpha", "beta"} {
		st, err := pool.Status(dep)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateRunning {
			t.Errorf("%s state %q, want %q", dep, st.State, StateRunning)
		}
		if !bytes.Equal(got[dep], want[dep]) {
			t.Errorf("deployment %s: report diverged after a sibling's panic", dep)
		}
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	metrics := buf.String()
	if !strings.Contains(metrics, "fleet_panics_total 1") {
		t.Errorf("fleet_panics_total != 1:\n%s", firstLines(metrics, 40))
	}
	if !strings.Contains(metrics, "fleet_restarts_total 1") {
		t.Errorf("fleet_restarts_total != 1:\n%s", firstLines(metrics, 40))
	}
}

// TestCheckpointRetention checks pruning holds the directory to the newest
// two checkpoints and only the journal segments recovery needs.
func TestCheckpointRetention(t *testing.T) {
	tr := stuckTrace(t, 5)
	dir := t.TempDir()
	pool, err := New(durableConfig(dir, false))
	if err != nil {
		t.Fatal(err)
	}
	submitInterleaved(t, pool, []string{"alpha", "beta"}, tr, 0, len(tr.Readings))
	pool.Drain()

	for shardID := 0; shardID < 2; shardID++ {
		sdir := shardDir(dir, shardID)
		ckpts, err := listCheckpoints(chaos.OS, sdir)
		if err != nil {
			t.Fatal(err)
		}
		if len(ckpts) == 0 || len(ckpts) > 2 {
			t.Errorf("shard %d holds %d checkpoints, want 1-2", shardID, len(ckpts))
		}
		segs, err := listJournals(chaos.OS, sdir)
		if err != nil {
			t.Fatal(err)
		}
		oldest := ckpts[0].base
		covered := false
		for _, sg := range segs {
			if sg.base <= oldest {
				if covered {
					t.Errorf("shard %d keeps more than one segment below checkpoint seq %d", shardID, oldest)
				}
				covered = true
			}
		}
		entries, err := os.ReadDir(sdir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if filepath.Ext(e.Name()) == ".tmp" {
				t.Errorf("shard %d left temp file %s behind", shardID, e.Name())
			}
		}
	}
}

// TestStatusStates walks a deployment through the bootstrapping and running
// states (failed/quarantined are covered elsewhere).
func TestStatusStates(t *testing.T) {
	tr := stuckTrace(t, 3)
	pool, err := New(Config{Shards: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	submitInterleaved(t, pool, []string{"alpha"}, tr, 0, 10)
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := pool.Status("alpha")
		if err == nil {
			if st.State != StateBootstrapping {
				t.Errorf("early state %q, want %q", st.State, StateBootstrapping)
			}
			break
		}
		if !errors.Is(err, ErrUnknownDeployment) {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("deployment never registered")
		}
		time.Sleep(time.Millisecond)
	}
	submitInterleaved(t, pool, []string{"alpha"}, tr, 10, len(tr.Readings))
	pool.Drain()
	st, err := pool.Status("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateRunning {
		t.Errorf("final state %q, want %q", st.State, StateRunning)
	}
	if !st.Bootstrapped {
		t.Error("final status not bootstrapped")
	}
}

// TestInvalidReadingsNeverAcknowledged submits readings the journal could
// not replay — no values, a negative time, a NaN — between valid ones, then
// crashes and recovers. Each must be refused with *ingest.InvalidReadingError
// in both durability modes; before that check, a durable pool acknowledged
// them, and replay stopped at the first one, losing every acknowledged
// reading behind it.
func TestInvalidReadingsNeverAcknowledged(t *testing.T) {
	tr := stuckTrace(t, 1)
	bad := map[uint64]ingest.Reading{
		5: {Reading: sensor.Reading{Sensor: 1, Time: time.Minute}},
		6: {Reading: sensor.Reading{Sensor: 1, Time: -time.Minute, Values: []float64{20, 50}}},
		7: {Reading: sensor.Reading{Sensor: 1, Time: time.Minute, Values: []float64{math.NaN(), 50}}},
	}
	const last = 12
	submit := func(t *testing.T, p *Pool) {
		t.Helper()
		for seq := uint64(1); seq <= last; seq++ {
			r, invalid := bad[seq]
			if !invalid {
				r = ingest.Reading{Reading: tr.Readings[seq]}
			}
			r.Deployment, r.Seq = "alpha", seq
			err := p.Submit(r)
			var ire *ingest.InvalidReadingError
			switch {
			case invalid && !errors.As(err, &ire):
				t.Fatalf("seq %d: invalid reading got %v, want *ingest.InvalidReadingError", seq, err)
			case !invalid && err != nil:
				t.Fatalf("seq %d: %v", seq, err)
			}
		}
		if _, _, err := p.SubmitBatch([]ingest.Reading{bad[5]}); err == nil {
			t.Fatal("SubmitBatch acknowledged a reading with no values")
		}
	}
	lastWireSeq := func(p *Pool) uint64 {
		s := p.shards[shardIndex("alpha", len(p.shards))]
		s.mu.RLock()
		defer s.mu.RUnlock()
		return s.deployments["alpha"].lastWireSeq
	}

	t.Run("in-memory", func(t *testing.T) {
		pool, err := New(Config{Shards: 2, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		submit(t, pool)
		pool.Drain()
		if got := lastWireSeq(pool); got != last {
			t.Fatalf("lastWireSeq %d, want %d", got, last)
		}
	})
	t.Run("durable-crash-recovery", func(t *testing.T) {
		dir := t.TempDir()
		first, err := New(durableConfig(dir, false))
		if err != nil {
			t.Fatal(err)
		}
		submit(t, first)
		first.abort()
		second, err := New(durableConfig(dir, true))
		if err != nil {
			t.Fatalf("recover: %v", err)
		}
		second.Drain()
		if got := lastWireSeq(second); got != last {
			t.Fatalf("recovered lastWireSeq %d, want %d: acknowledged readings lost", got, last)
		}
	})
}

// TestJournalRoundTrip exercises the segment codec directly: entries written
// are read back exactly, and shard-identity mismatches are refused.
func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := openJournal(chaos.OS, dir, 1, 4, 100)
	if err != nil {
		t.Fatal(err)
	}
	var wantEntries []journalEntry
	for i := 1; i <= 10; i++ {
		e := journalEntry{
			Seq:        100 + uint64(i),
			Deployment: fmt.Sprintf("dep-%d", i%3),
			WireSeq:    uint64(i),
			Sensor:     i % 4,
			TimeNS:     int64(i) * int64(time.Minute),
			Values:     []float64{float64(i), 0.5},
		}
		payload, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.write(appendRecord(nil, payload)); err != nil {
			t.Fatal(err)
		}
		wantEntries = append(wantEntries, e)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	path := journalPath(dir, 100)
	got, err := readJournal(chaos.OS, path, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(wantEntries) {
		t.Fatalf("read %d entries, want %d", len(got), len(wantEntries))
	}
	for i := range got {
		if got[i].Seq != wantEntries[i].Seq || got[i].Deployment != wantEntries[i].Deployment ||
			got[i].TimeNS != wantEntries[i].TimeNS {
			t.Fatalf("entry %d mismatch: %+v != %+v", i, got[i], wantEntries[i])
		}
	}
	if _, err := readJournal(chaos.OS, path, 0, 4); err == nil {
		t.Error("journal for shard 1 accepted by shard 0")
	}
	if _, err := readJournal(chaos.OS, path, 1, 8); err == nil {
		t.Error("journal for 4-shard layout accepted by 8-shard pool")
	}

	// A torn tail (partial final record) must cost exactly the final record.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	got, err = readJournal(chaos.OS, path, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(wantEntries)-1 {
		t.Fatalf("torn tail: read %d entries, want %d", len(got), len(wantEntries)-1)
	}
}

// TestRestoreRejectsUnknownFields ensures restoreDeployment refuses
// inconsistent records rather than building partial deployments.
func TestRestoreRejectsBadDeploymentRecords(t *testing.T) {
	cfg := Config{}.withDefaults()
	cfg.Durability = Durability{Dir: t.TempDir()}
	cfg = cfg.withDefaults()
	cases := map[string]deploymentCheckpoint{
		"negative-first": {Name: "d", State: StateBootstrapping, FirstNS: -1},
		"unknown-state":  {Name: "d", State: "zombie"},
		"failed-no-err":  {Name: "d", State: StateFailed},
		"windower-only": {Name: "d", State: StateRunning,
			Windower: &checkpointWindower{Width: cfg.Window, Lateness: cfg.Lateness}},
		"bad-pending": {Name: "d", State: StateBootstrapping,
			Pending: []checkpointReading{{Sensor: 0, TimeNS: -5, Values: []float64{1}}}},
	}
	s := &shard{pool: &Pool{cfg: cfg}}
	for name, rec := range cases {
		if _, err := s.restoreDeployment(rec); err == nil {
			t.Errorf("%s: restored without error", name)
		}
	}
}
