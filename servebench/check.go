package main

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"time"

	"sensorguard/internal/cluster"
	"sensorguard/internal/core"
	"sensorguard/internal/ingest"
	"sensorguard/internal/network"
	"sensorguard/internal/obs"
	"sensorguard/internal/sensor"
	"sensorguard/internal/vecmat"
)

// Pool parameters the offline reference must share with the served pool.
const (
	poolSeed      = 1
	poolStates    = 6
	poolBootstrap = 24 * time.Hour
)

// offline is a deployment's reference outcome: what a single-threaded
// core.Detector makes of the readings the pool applied.
type offline struct {
	report  core.Report
	stats   core.Stats
	windows int // windows stepped, quorum-skipped ones included
}

// replayOffline steps one deployment's applied readings through a bare
// detector the way a shard worker does: buffer the bootstrap horizon, seed
// the model states by k-means over it, then window the stream with the
// streaming windower (lateness = one window) and flush at the end.
func replayOffline(rs []sensor.Reading, window time.Duration) (offline, error) {
	if len(rs) == 0 {
		return offline{}, errors.New("no readings")
	}
	horizon := rs[0].Time + poolBootstrap
	var pts []vecmat.Vector
	for _, r := range rs {
		if r.Time >= horizon {
			break
		}
		pts = append(pts, r.Values)
	}
	seeds, err := cluster.KMeans(pts, poolStates, rand.New(rand.NewSource(poolSeed)), 100)
	if err != nil {
		return offline{}, err
	}
	det, err := newDetector(seeds, window, nil)
	if err != nil {
		return offline{}, err
	}
	wd, err := ingest.NewWindower(window, window)
	if err != nil {
		return offline{}, err
	}
	var o offline
	step := func(ws []network.Window) error {
		for _, w := range ws {
			if _, err := det.Step(w); err != nil {
				return err
			}
			o.windows++
		}
		return nil
	}
	// The pool buffers the horizon and feeds it to a fresh windower once
	// the horizon ends, so windowing the whole stream in order from the
	// start yields the same windows.
	for _, r := range rs {
		if err := step(wd.Add(r)); err != nil {
			return offline{}, err
		}
	}
	if err := step(wd.Flush()); err != nil {
		return offline{}, err
	}
	if o.report, err = det.Report(); err != nil {
		return offline{}, err
	}
	o.stats = det.Stats()
	return o, nil
}

// newDetector builds a detector the way the pool's default NewDetector
// does, optionally with an observer installed.
func newDetector(seeds []vecmat.Vector, window time.Duration, ob *obs.Observer) (*core.Detector, error) {
	cfg := core.DefaultConfig(seeds)
	cfg.Window = window
	cfg.Observer = ob
	return core.NewDetector(cfg)
}

// served is what the benchmark observed of one deployment on the pool.
type served struct {
	report   core.Report
	stats    core.Stats
	verdicts int // decision records the audit writer received
}

// outcome is everything the output check needs from one run.
type outcome struct {
	sent, accepted, rejected, dropped int
	duplicates, wantDuplicates        int
	deps                              []string
	got                               []served
	want                              []offline
}

// check is the run's output check. It fails on the first broken
// invariant: the reading accounting, the duplicate count, each
// deployment's window count (as stepped and as audited), and each final
// report against the offline replay.
func check(o outcome) error {
	if o.sent != o.accepted+o.rejected+o.dropped {
		return fmt.Errorf("accounting: sent %d != accepted %d + rejected %d + dropped %d",
			o.sent, o.accepted, o.rejected, o.dropped)
	}
	if o.duplicates != o.wantDuplicates {
		return fmt.Errorf("duplicates: pool dropped %d, the corpus replays %d", o.duplicates, o.wantDuplicates)
	}
	for i, dep := range o.deps {
		got, want := o.got[i], o.want[i]
		if n := got.stats.Steps + got.stats.SkippedWindows; n != want.windows {
			return fmt.Errorf("%s: stepped %d windows, offline replay %d", dep, n, want.windows)
		}
		if got.verdicts != want.windows {
			return fmt.Errorf("%s: audit log holds %d verdicts, want %d", dep, got.verdicts, want.windows)
		}
		if !reflect.DeepEqual(got.stats, want.stats) {
			return fmt.Errorf("%s: detector stats %+v differ from offline %+v", dep, got.stats, want.stats)
		}
		if !reflect.DeepEqual(got.report, want.report) {
			return fmt.Errorf("%s: final report differs from the offline replay", dep)
		}
	}
	return nil
}

// replayAll computes the offline reference of every deployment on up to
// two goroutines, once per distinct (stream, passes) pair.
func replayAll(f *feed, passes []int, window time.Duration, wire func(time.Duration) time.Duration) ([]offline, int, error) {
	type key struct{ stream, passes int }
	type job struct {
		k       key
		d       int
		applied int // readings left after dedup
		res     offline
		err     error
	}
	jobs := map[key]*job{}
	var order []*job
	for d := range f.deps {
		k := key{f.streamID[d], passes[d]}
		if jobs[k] == nil {
			jobs[k] = &job{k: k, d: d}
			order = append(order, jobs[k])
		}
	}
	var wg sync.WaitGroup
	next := make(chan *job)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range next {
				rs := f.applied(j.d, j.k.passes, wire)
				j.applied = len(rs)
				j.res, j.err = replayOffline(rs, window)
			}
		}()
	}
	for _, j := range order {
		next <- j
	}
	close(next)
	wg.Wait()
	out := make([]offline, len(f.deps))
	dups := 0
	for d := range f.deps {
		j := jobs[key{f.streamID[d], passes[d]}]
		if j.err != nil {
			return nil, 0, fmt.Errorf("offline replay of %s: %w", f.deps[d], j.err)
		}
		out[d] = j.res
		dups += passes[d]*len(f.streams[d]) - j.applied
	}
	return out, dups, nil
}
