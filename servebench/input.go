package main

import (
	"fmt"
	"time"

	"sensorguard/internal/gdi"
	"sensorguard/internal/ingest"
	"sensorguard/internal/scenario"
	"sensorguard/internal/sensor"
)

// feed is a workload's input: one replay pass of wire readings per
// deployment. Pass p replays pass 0 shifted by p·shift[d] in event time and
// p·seqShift in wire sequence (forged Seq-0 readings stay 0), so each pass
// continues the deployment's stream instead of landing in closed windows,
// and only the corpus's own stale retransmissions are deduplicated.
type feed struct {
	deps     []string
	streams  [][]ingest.Reading // pass 0, ship order, per deployment
	streamID []int              // deployments with equal streams share an ID
	shift    []time.Duration    // per deployment, a whole number of windows
	seqShift uint64
	// owner assigns each deployment to one client connection, so each
	// deployment's readings arrive in order.
	owner []int
}

// reading returns deployment d's i-th reading of pass p as the producer
// ships it.
func (f *feed) reading(d, p, i int) ingest.Reading {
	r := f.streams[d][i]
	r.Time += time.Duration(p) * f.shift[d]
	if r.Seq > 0 {
		r.Seq += uint64(p) * f.seqShift
	}
	return r
}

// gdiFeed fans one generated GDI trace over n deployments, split across
// conns connections.
func gdiFeed(seed int64, days, n, conns int) (*feed, error) {
	cfg := gdi.DefaultGenerateConfig()
	cfg.Days = days
	cfg.Seed = seed
	tr, err := gdi.Generate(cfg)
	if err != nil {
		return nil, err
	}
	base := make([]ingest.Reading, len(tr.Readings))
	for i, r := range tr.Readings {
		base[i] = ingest.Reading{Seq: uint64(i + 1), Reading: r}
	}
	f := &feed{}
	for d := 0; d < n; d++ {
		dep := fmt.Sprintf("gdi-%02d", d)
		rs := make([]ingest.Reading, len(base))
		for i, r := range base {
			r.Deployment = dep
			rs[i] = r
		}
		f.deps = append(f.deps, dep)
		f.streams = append(f.streams, rs)
		f.streamID = append(f.streamID, 0)
		f.owner = append(f.owner, d%conns)
	}
	return f, nil
}

// corpusFeed builds every labelled campaign of the scenario corpus, one
// deployment each, all on connection 0.
func corpusFeed(seed int64) (*feed, error) {
	f := &feed{}
	for _, sc := range scenario.Corpus() {
		run, err := sc.Build(scenario.Config{Scenario: sc.Spec().Name, Seed: seed})
		if err != nil {
			return nil, err
		}
		f.deps = append(f.deps, run.Config.Deployment)
		f.streams = append(f.streams, run.Readings)
		f.streamID = append(f.streamID, len(f.streamID))
		f.owner = append(f.owner, 0)
	}
	return f, nil
}

// passes derives the per-pass shifts: each deployment's first window
// boundary past its latest event time, so consecutive passes join without
// a run of empty windows, and the highest sequence number.
func (f *feed) passes(window time.Duration) {
	f.shift = make([]time.Duration, len(f.streams))
	for d, rs := range f.streams {
		var maxT time.Duration
		for _, r := range rs {
			maxT = max(maxT, r.Time)
			f.seqShift = max(f.seqShift, r.Seq)
		}
		f.shift[d] = (maxT/window + 1) * window
	}
}

// entry names one reading of one pass: deployment d's i-th.
type entry struct{ d, i int32 }

// order returns connection c's ship order for one pass: its deployments
// interleaved reading by reading, so event time advances evenly across them.
func (f *feed) order(c int) []entry {
	var mine []int
	for d, o := range f.owner {
		if o == c {
			mine = append(mine, d)
		}
	}
	var out []entry
	for i := 0; ; i++ {
		any := false
		for _, d := range mine {
			if i < len(f.streams[d]) {
				out = append(out, entry{int32(d), int32(i)})
				any = true
			}
		}
		if !any {
			return out
		}
	}
}

// closing maps each reading of a steady-state pass to the windows whose
// verdict it triggers: closes[d][i] lists window offsets relative to the
// pass (add p·windowsPerPass for pass p). It replays the pool's per-reading
// path offline — wire-seq dedup, then the streaming windower — over passes
// 0 and 1; from pass 1 on the windower state repeats pass after pass.
func (f *feed) closing(window time.Duration, wire func(time.Duration) time.Duration) ([][][]int32, error) {
	out := make([][][]int32, len(f.deps))
	for d := range f.deps {
		wpp := int(f.shift[d] / window)
		wd, err := ingest.NewWindower(window, window)
		if err != nil {
			return nil, err
		}
		var last uint64
		out[d] = make([][]int32, len(f.streams[d]))
		for p := 0; p < 2; p++ {
			for i := range f.streams[d] {
				r := f.reading(d, p, i)
				if !fresh(r.Seq, &last) {
					continue
				}
				r.Time = wire(r.Time)
				for _, w := range wd.Add(r.Reading) {
					if p == 1 {
						out[d][i] = append(out[d][i], int32(w.Index-wpp))
					}
				}
			}
		}
	}
	return out, nil
}

// applied returns deployment d's readings after passes full passes, as the
// shard worker applies them: wire-seq duplicates removed, times as the
// codec delivers them.
func (f *feed) applied(d, passes int, wire func(time.Duration) time.Duration) []sensor.Reading {
	out := make([]sensor.Reading, 0, passes*len(f.streams[d]))
	var last uint64
	for p := 0; p < passes; p++ {
		for i := range f.streams[d] {
			r := f.reading(d, p, i)
			if fresh(r.Seq, &last) {
				r.Time = wire(r.Time)
				out = append(out, r.Reading)
			}
		}
	}
	return out
}

// fresh applies the pool's retransmission rule to a wire sequence: a
// producer-stamped seq at or below the highest seen is a duplicate.
func fresh(seq uint64, last *uint64) bool {
	if seq == 0 {
		return true
	}
	if seq <= *last {
		return false
	}
	*last = seq
	return true
}
