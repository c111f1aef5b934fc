package core

import (
	"io"
	"math/rand"
	"testing"
	"time"

	"sensorguard/internal/cluster"
	"sensorguard/internal/gdi"
	"sensorguard/internal/network"
	"sensorguard/internal/vecmat"
)

// TestStepZeroAllocSteadyState pins the hot-path contract: once the
// detector's scratch space has grown to the window's working-set size, the
// bare (uninstrumented) Step allocates nothing. A regression here silently
// re-taxes every window of every deployment, so it fails loudly instead.
// Two inputs: synthetic windows of identical readings at the key states,
// and a generated GDI day stepped the way a fleet shard steps it (k-means
// seeds over the first 24 h, 1 h windows), whose windows hold many spread
// readings per sensor, so scratch space that grows with window size is
// covered too.
func TestStepZeroAllocSteadyState(t *testing.T) {
	t.Run("uniform", func(t *testing.T) {
		points := keyStates()
		wins := make([]network.Window, 4)
		for i := range wins {
			wins[i] = uniformWindow(i, 10, points[i])
		}
		// Warm up: grow scratch buffers, visit every key state, let the
		// cluster set settle.
		assertStepZeroAlloc(t, DefaultConfig(keyStates()), wins, 128)
	})
	t.Run("gdi", func(t *testing.T) {
		gcfg := gdi.DefaultGenerateConfig()
		gcfg.Days = 1
		tr, err := gdi.Generate(gcfg)
		if err != nil {
			t.Fatal(err)
		}
		var points []vecmat.Vector
		for _, r := range tr.Readings {
			if r.Time < 24*time.Hour {
				points = append(points, r.Values)
			}
		}
		seeds, err := cluster.KMeans(points, 6, rand.New(rand.NewSource(1)), 100)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(seeds)
		cfg.Window = time.Hour
		wins, err := network.WindowAll(tr.Readings, time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		// Warm up over one full replay of the trace.
		assertStepZeroAlloc(t, cfg, wins, len(wins))
	})
}

// assertStepZeroAlloc steps a detector built from cfg through wins in a
// loop, warmup windows first, and fails if a further window allocates.
func assertStepZeroAlloc(t *testing.T, cfg Config, wins []network.Window, warmup int) {
	t.Helper()
	d, err := NewDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	idx := 0
	step := func() {
		w := wins[idx%len(wins)]
		w.Index = idx
		if _, err := d.Step(w); err != nil {
			t.Fatal(err)
		}
		idx++
	}
	for i := 0; i < warmup; i++ {
		step()
	}
	if got := testing.AllocsPerRun(500, step); got != 0 {
		t.Fatalf("steady-state Step allocates %v times per window, want 0", got)
	}
}

// maxOpenTrackStepAllocs bounds the allocations of one window that carries
// an open track and emits a decision record to the audit log. What remains
// is what the record keeps (its slices, attribute copies and the B^CO
// evidence) plus the per-window model-state and open-track copies taken from
// the cluster set and the track manager.
const maxOpenTrackStepAllocs = 24

// TestStepAllocsWithOpenTrack pins the cost of the diagnosis and provenance
// pass: a window with a long-open track runs the quarantine diagnosis on
// M_CE and assembles a decision record with B^CO evidence, encoded to the
// audit log. Scratch reuse keeps that to a small fixed number of
// allocations; a regression re-taxes every alarming window.
func TestStepAllocsWithOpenTrack(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops the audit log's encode buffers at random")
	}
	cfg := DefaultConfig(keyStates())
	cfg.Decisions = NewDecisionLog(io.Discard)
	d, err := NewDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	points := keyStates()
	wins := make([]network.Window, 4)
	for v := range wins {
		bySensor := make([]vecmat.Vector, 10)
		for s := 0; s < 9; s++ {
			bySensor[s] = points[v]
		}
		bySensor[9] = vecmat.Vector{45, 20}
		wins[v] = window(v, bySensor)
	}
	idx := 0
	step := func() {
		w := wins[idx%4]
		w.Index = idx
		if _, err := d.Step(w); err != nil {
			t.Fatal(err)
		}
		idx++
	}
	// Warm up past QuarantineAfter so the track is old enough to be
	// diagnosed every window.
	for i := 0; i < 4*cfg.QuarantineAfter; i++ {
		step()
	}
	if _, open := d.Tracks().Active(9); !open {
		t.Fatal("test is vacuous: the outlier has no open track")
	}
	if got := testing.AllocsPerRun(200, step); got > maxOpenTrackStepAllocs {
		t.Fatalf("Step with an open track and an audit log allocates %v times per window, want <= %d",
			got, maxOpenTrackStepAllocs)
	}
}

// TestStepResultCloneIndependent pins that Clone detaches a result from the
// detector's scratch space: stepping again must not mutate the clone.
func TestStepResultCloneIndependent(t *testing.T) {
	d, err := NewDetector(DefaultConfig(keyStates()))
	if err != nil {
		t.Fatal(err)
	}
	points := keyStates()
	res, err := d.Step(uniformWindow(0, 10, points[0]))
	if err != nil {
		t.Fatal(err)
	}
	borrowed := res.Sensors
	clone := res.Clone()
	want := make(map[int]SensorStep, len(clone.Sensors))
	for id, s := range clone.Sensors {
		want[id] = s
	}
	// Step a window with a different sensor population; the borrowed map
	// is rewritten in place, the clone must not move.
	if _, err := d.Step(uniformWindow(1, 4, points[1])); err != nil {
		t.Fatal(err)
	}
	if len(borrowed) == len(want) {
		t.Fatalf("test is vacuous: borrowed map unchanged (len %d)", len(borrowed))
	}
	if len(clone.Sensors) != len(want) {
		t.Fatalf("clone mutated by later Step: len %d, want %d", len(clone.Sensors), len(want))
	}
	for id, s := range want {
		if clone.Sensors[id] != s {
			t.Fatalf("clone entry %d mutated: %+v != %+v", id, clone.Sensors[id], s)
		}
	}
}
