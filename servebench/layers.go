package main

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"sensorguard/internal/cluster"
	"sensorguard/internal/ingest"
	"sensorguard/internal/network"
	"sensorguard/internal/obs"
	"sensorguard/internal/vecmat"
)

// layers fills the per-layer metrics of a --trace 1 run. ref is the
// untraced run (already checked); layers adds a traced run of the same
// length, prices each observability instrument on corpus-mixed, and runs
// the single-threaded layer baselines.
//
// The ledger splits the traced run's CPU per reading into the work stages
// the pool's own StageSet clocks time (journal append, window admission,
// detector step, checkpoint), the ingest decode (the pool's decode clock
// for frames; for NDJSON the /ingest handler's self time, which also
// covers reading and splitting the body), and the query routes:
//
//	ingest.decode + fleet.journal_append + ingest.window_admit + core.step
//	  + ledger.checkpoint + ledger.query + ledger.unattributed = ledger.cpu
//
// Unattributed is the rest: sockets, HTTP, queue hand-off, the audit log,
// GC. fleet.submit_ns_per_reading stays out of the sum: under a closed
// loop it is mostly backpressure wait, not CPU.
func layers(out map[string]metric, pr *prepared, ref *measurement, opts sessionOpts) error {
	traced := opts
	traced.traced = true
	tm, err := runSession(pr, traced)
	if err != nil {
		return err
	}
	if tm.checkErr != nil {
		return fmt.Errorf("output check (traced run): %w", tm.checkErr)
	}
	w := pr.w
	n := float64(tm.readings)
	d := func(a, b uint64) float64 { return float64(a - b) }
	busy := func(stage string) float64 { return d(tm.c1.stageBusy[stage], tm.c0.stageBusy[stage]) / n }
	put := func(name string, v float64, unit string) { out[name] = metric{v, unit} }

	cpu := float64(tm.c1.cpuNS-tm.c0.cpuNS) / n
	refCPU := float64(ref.c1.cpuNS-ref.c0.cpuNS) / float64(ref.readings)
	submit := float64(tm.c1.submitNS-tm.c0.submitNS) / n
	decode := busy("ingest_decode")
	if w.codec == codecNDJSON {
		decode = float64((tm.c1.handlerNS-tm.c0.handlerNS)-(tm.c1.submitNS-tm.c0.submitNS)) / n
	}
	journal, admit := busy("journal_append"), busy("window_admit")
	step, ckpt := busy("detector_step"), busy("checkpoint")
	query := float64(tm.c1.queryNS-tm.c0.queryNS) / n
	put("ingest.decode_ns_per_reading", decode, "ns")
	put("fleet.journal_append_ns_per_reading", journal, "ns")
	put("ingest.window_admit_ns_per_reading", admit, "ns")
	put("core.step_ns_per_reading", step, "ns")
	put("ledger.checkpoint_ns_per_reading", ckpt, "ns")
	put("ledger.query_ns_per_reading", query, "ns")
	put("ledger.unattributed_ns_per_reading", cpu-(decode+journal+admit+step+ckpt+query), "ns")
	put("fleet.submit_ns_per_reading", submit, "ns")
	put("ledger.cpu_ns_per_reading", cpu, "ns")
	put("trace.overhead_frac", (cpu-refCPU)/refCPU, "ratio")

	put("ingest.wire_bytes_per_reading", float64(tm.bytes)/n, "B")
	put("ingest.late_readings", d(tm.c1.late, tm.c0.late), "count")
	put("fleet.journal_writes_per_reading", float64(tm.c1.jWrites-tm.c0.jWrites)/n, "count")
	put("fleet.journal_bytes_per_reading", float64(tm.c1.jBytes-tm.c0.jBytes)/n, "B")
	ckpts := float64(tm.c1.ckpts - tm.c0.ckpts)
	ckptMS, ckptBytes := 0.0, 0.0
	if units := d(tm.c1.stageUnits["checkpoint"], tm.c0.stageUnits["checkpoint"]); units > 0 {
		ckptMS = d(tm.c1.stageBusy["checkpoint"], tm.c0.stageBusy["checkpoint"]) / units / 1e6
	}
	if ckpts > 0 {
		ckptBytes = float64(tm.c1.cBy-tm.c0.cBy) / ckpts
	}
	put("fleet.checkpoint_ms_mean", ckptMS, "ms")
	put("fleet.checkpoint_bytes", ckptBytes, "B")
	put("fleet.queue_wait_p50_us", histQuantile(tm.c0.queueWait, tm.c1.queueWait, 0.5)*1e6, "us")
	put("fleet.queue_wait_p99_us", histQuantile(tm.c0.queueWait, tm.c1.queueWait, 0.99)*1e6, "us")
	mean := float64(tm.perShard[0]+tm.perShard[1]) / 2
	put("fleet.shard_skew", float64(max(tm.perShard[0], tm.perShard[1]))/mean, "ratio")
	put("fleet.dropped", d(tm.c1.dropped, tm.c0.dropped), "count")
	put("fleet.duplicates", d(tm.c1.dups, tm.c0.dups), "count")

	var total []float64
	var stage [5][]float64
	for _, l := range tm.steps {
		total = append(total, float64(l.TotalNS)/1e3)
		for i, v := range []int64{l.DeriveNS, l.ClassifyNS, l.MapNS, l.AlarmNS, l.HMMNS} {
			stage[i] = append(stage[i], float64(v)/1e3)
		}
	}
	put("core.step_us_p50", quantile(total, 0.5), "us")
	put("core.step_us_p99", quantile(total, 0.99), "us")
	for i, name := range []string{"derive", "classify", "map", "alarm", "hmm"} {
		put("core.stage_"+name+"_us", meanOf(stage[i]), "us")
	}
	put("core.report_ms_p50", quantile(tm.reports, 0.5), "ms")

	// Client-side latencies and runtime costs come from the untraced run.
	// A TCP stream has no acknowledgement: its ack rows stay 0.
	put("ingest.ack_p50_ms", 0, "ms")
	put("ingest.ack_p99_ms", 0, "ms")
	if !w.tcp {
		put("ingest.ack_p50_ms", quantile(ref.ack, 0.5), "ms")
		put("ingest.ack_p99_ms", quantile(ref.ack, 0.99), "ms")
	}
	all := append(append(append([]float64(nil), ref.queryLat[0]...), ref.queryLat[1]...), ref.queryLat[2]...)
	put("query.p50_ms", quantile(all, 0.5), "ms")
	put("query.p99_ms", quantile(all, 0.99), "ms")
	put("obs.metrics_scrape_ms_p50", quantile(ref.queryLat[queryMetrics], 0.5), "ms")
	put("loadgen.lag_p99_ms", 0, "ms")
	if w.rate > 0 {
		put("loadgen.lag_p99_ms", quantile(ref.lag, 0.99), "ms")
	}
	put("runtime.alloc_bytes_per_reading", (ref.c1.allocBytes-ref.c0.allocBytes)/float64(ref.readings), "B")
	put("runtime.gc_cpu_frac", (ref.c1.gcCPU-ref.c0.gcCPU)/(ref.c1.totalCPU-ref.c0.totalCPU), "ratio")

	if err := price(out, pr, opts); err != nil {
		return err
	}
	return baselines(out, pr)
}

// pricedSeconds is the measured length of each of the seven
// instrument-pricing sessions: a third of the main run, at least 2 s, so a
// traced corpus-mixed run stays well inside its time limit.
func pricedSeconds(s float64) float64 { return math.Max(2, s/3) }

// price measures what each observability instrument costs on corpus-mixed:
// cpu_ns_per_reading with every instrument on, minus the same with one
// switched off, all at the same run length. The all-on run goes first and
// last and its two readings are averaged, to cancel drift. Switching the
// metrics registry off also removes the TSDB that samples it and the
// /metrics route the query client polls, so its row subtracts the TSDB row
// but keeps the scrapes. Other workloads report zeros.
func price(out map[string]metric, pr *prepared, opts sessionOpts) error {
	names := []string{"tracer", "tsdb", "health", "decisions", "metrics"}
	for _, nm := range names {
		out["obs."+nm+"_ns_per_reading"] = metric{0, "ns"}
	}
	if pr.w.queryRate == 0 {
		return nil
	}
	cpuWith := func(in instruments) (float64, error) {
		o := sessionOpts{seconds: pricedSeconds(opts.seconds), setups: 1, in: in, scratch: opts.scratch}
		m, err := runSession(pr, o)
		if err != nil {
			return 0, err
		}
		return float64(m.c1.cpuNS-m.c0.cpuNS) / float64(m.readings), nil
	}
	before, err := cpuWith(allInstruments)
	if err != nil {
		return err
	}
	off := map[string]float64{}
	for _, nm := range names {
		in := allInstruments
		switch nm {
		case "tracer":
			in.tracer = false
		case "tsdb":
			in.tsdb = false
		case "health":
			in.health = false
		case "decisions":
			in.decisions = false
		case "metrics":
			in.metrics, in.tsdb = false, false
		}
		if off[nm], err = cpuWith(in); err != nil {
			return err
		}
	}
	after, err := cpuWith(allInstruments)
	if err != nil {
		return err
	}
	base := (before + after) / 2
	cost := map[string]float64{}
	for nm, c := range off {
		cost[nm] = base - c
	}
	cost["metrics"] -= cost["tsdb"]
	for nm, v := range cost {
		out["obs."+nm+"_ns_per_reading"] = metric{v, "ns"}
	}
	return nil
}

// baselines times each layer's hot call alone on one goroutine, over the
// workload's own first deployment: NDJSON and frame decode, window
// admission, the detector step (and its allocations), and the bootstrap
// k-means. They cross-check the in-pool ledger.
func baselines(out map[string]metric, pr *prepared) error {
	f, w := pr.feed, pr.w
	rs := f.streams[0]
	lines := make([][]byte, len(rs))
	for i, r := range rs {
		line, err := ingest.EncodeLine(r)
		if err != nil {
			return err
		}
		lines[i] = line
	}
	out["ingest.ndjson_solo_ns"] = metric{timePer(len(lines), func() error {
		for _, l := range lines {
			if _, err := ingest.DecodeLine(l); err != nil {
				return err
			}
		}
		return nil
	}), "ns"}
	var frames [][]byte
	for i := 0; i < len(rs); i += w.batch {
		fr, err := ingest.EncodeFrame(rs[i:min(i+w.batch, len(rs))])
		if err != nil {
			return err
		}
		frames = append(frames, fr)
	}
	out["ingest.frame_solo_ns"] = metric{timePer(len(rs), func() error {
		for _, fr := range frames {
			if _, _, err := ingest.DecodeFrame(fr); err != nil {
				return err
			}
		}
		return nil
	}), "ns"}

	applied := f.applied(0, 3, w.wire())
	out["ingest.window_admit_solo_ns"] = metric{timePer(len(applied), func() error {
		wd, err := ingest.NewWindower(w.window, w.window)
		if err != nil {
			return err
		}
		for _, r := range applied {
			wd.Add(r)
		}
		return nil
	}), "ns"}

	horizon := applied[0].Time + poolBootstrap
	var pts []vecmat.Vector
	for _, r := range applied {
		if r.Time >= horizon {
			break
		}
		pts = append(pts, r.Values)
	}
	var seeds []vecmat.Vector
	var kmErr error
	out["cluster.bootstrap_ms"] = metric{timePer(1, func() error {
		seeds, kmErr = cluster.KMeans(pts, poolStates, rand.New(rand.NewSource(poolSeed)), 100)
		return kmErr
	}) / 1e6, "ms"}
	if kmErr != nil {
		return kmErr
	}

	wd, err := ingest.NewWindower(w.window, w.window)
	if err != nil {
		return err
	}
	var wins []network.Window
	for _, r := range applied {
		wins = append(wins, wd.Add(r)...)
	}
	wins = append(wins, wd.Flush()...)
	if len(wins) < 2 {
		return fmt.Errorf("baseline: only %d windows", len(wins))
	}
	var stepErr error
	out["core.step_solo_us"] = metric{timePer(len(wins), func() error {
		det, err := newDetector(seeds, w.window, nil)
		if err != nil {
			return err
		}
		for _, win := range wins {
			if _, err := det.Step(win); err != nil {
				return err
			}
		}
		return nil
	}) / 1e3, "us"}
	det, err := newDetector(seeds, w.window, nil)
	if err != nil {
		return err
	}
	half := len(wins) / 2
	for _, win := range wins[:half] {
		if _, err := det.Step(win); err != nil {
			return err
		}
	}
	next := half
	allocs := testing.AllocsPerRun(len(wins)-half-1, func() {
		if _, err := det.Step(wins[next]); err != nil {
			stepErr = err
		}
		next++
	})
	if stepErr != nil {
		return stepErr
	}
	out["core.step_allocs"] = metric{allocs, "count"}
	return nil
}

// timePer runs fn until at least 200 ms have passed and returns the
// median ns per unit over the repetitions (units per call).
func timePer(units int, fn func() error) float64 {
	var per []float64
	start := time.Now()
	for len(per) < 3 || time.Since(start) < 200*time.Millisecond {
		t := time.Now()
		if err := fn(); err != nil {
			return math.NaN()
		}
		per = append(per, float64(time.Since(t))/float64(units))
	}
	return quantile(per, 0.5)
}

func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// histQuantile estimates the q-quantile of the observations between two
// snapshots of a histogram, interpolating linearly inside the bucket.
func histQuantile(a, b obs.HistogramSnapshot, q float64) float64 {
	if len(b.Counts) == 0 {
		return 0
	}
	counts := make([]float64, len(b.Counts))
	total := 0.0
	for i := range b.Counts {
		c := float64(b.Counts[i])
		if i < len(a.Counts) {
			c -= float64(a.Counts[i])
		}
		counts[i] = c
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := q * total
	lo := 0.0
	for i, c := range counts {
		hi := math.Inf(1)
		if i < len(b.Bounds) {
			hi = b.Bounds[i]
		}
		if rank <= c {
			if math.IsInf(hi, 1) {
				return lo
			}
			return lo + (hi-lo)*rank/c
		}
		rank -= c
		lo = hi
	}
	return lo
}
