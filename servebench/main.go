// Command servebench is sensorguard's serving benchmark. It builds a real
// fleet.Pool behind its real HTTP (fleet.Handler) and TCP
// (ingest.ServeTCPStaged) listeners on loopback, drives them from this
// process over at most two client connections, checks every deployment's
// final report against an offline detector replay, and prints one JSON
// result line:
//
//	servebench --workload ndjson-http --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the
// per-layer ledger from an untraced reference run plus a traced run (see
// layers.go). A failed output check exits 1 without a result.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"time"
)

const (
	codecNDJSON = "ndjson"
	codecFrame  = "frame"
)

// workload is one traffic mix. Why each exists is in BENCHMARK.json.
type workload struct {
	name      string
	codec     string
	tcp       bool
	journal   bool
	window    time.Duration
	conns     int     // ingest connections
	batch     int     // readings per POST body or TCP frame
	warm      int     // warm-up passes before the measured phase
	rate      float64 // open-loop readings/s; 0 = closed loop
	queryRate float64 // open-loop queries/s on a second connection; 0 = none
	build     func(seed int64) (*feed, error)
}

// wire maps a shipped event time to the one the codec delivers: NDJSON
// carries float seconds, frames carry nanoseconds.
func (w *workload) wire() func(time.Duration) time.Duration {
	if w.codec == codecNDJSON {
		return func(t time.Duration) time.Duration { return time.Duration(t.Seconds() * float64(time.Second)) }
	}
	return func(t time.Duration) time.Duration { return t }
}

// The corpus workload's open loop: ingest at about half of the pool's
// closed-loop capacity on this input, queries at a rate that gives their
// p99 at least ten samples beyond it in a 10 s run. Its frames hold 2000
// readings: with 500, the verdict p99 was mostly host CPU steal and spread
// ±30% from run to run on a 2-vCPU VM; with 2000 it is mostly the batch's
// own service time.
const (
	corpusRate      = 100000
	corpusQueryRate = 150
	corpusBatch     = 2000
)

var workloads = []*workload{
	{
		name: "ndjson-http", codec: codecNDJSON, window: time.Hour, conns: 2, batch: 500, warm: 2,
		build: func(seed int64) (*feed, error) { return gdiFeed(seed, 2, 16, 2) },
	},
	{
		name: "frame-tcp-journal", codec: codecFrame, tcp: true, journal: true, window: time.Hour, conns: 2, batch: 500, warm: 2,
		build: func(seed int64) (*feed, error) { return gdiFeed(seed, 2, 16, 2) },
	},
	{
		name: "corpus-mixed", codec: codecFrame, window: 5 * time.Minute, conns: 1, batch: corpusBatch, warm: 2,
		rate: corpusRate, queryRate: corpusQueryRate,
		build: corpusFeed,
	},
}

func lookup(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// setupRepeats is how many pool set-ups each run times; setup_s is their
// median.
const setupRepeats = 21

// outDir holds the journal directories (removed after each run) and the
// traced run's span dumps, under the benchmark's build directory.
var outDir = filepath.Join(".bench_build", "servebench")

func main() {
	log := slog.New(slog.NewTextHandler(os.Stderr, nil))
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured phase length")
	trace := flag.Int("trace", 0, "1 = per-layer run, 0 = end-to-end run")
	flag.Parse()
	res, err := run(*name, *seed, *seconds, *trace == 1)
	if err != nil {
		log.Error("servebench failed", "workload", *name, "error", err.Error())
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		log.Error("servebench failed", "error", err.Error())
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func run(name string, seed int64, seconds float64, traced bool) (*result, error) {
	w, err := lookup(name)
	if err != nil {
		return nil, err
	}
	if seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	pr, err := prepare(w, seed)
	if err != nil {
		return nil, fmt.Errorf("inputs: %w", err)
	}
	opts := sessionOpts{seconds: seconds, setups: setupRepeats, in: allInstruments, check: true, scratch: outDir}
	ref, err := runSession(pr, opts)
	if err != nil {
		return nil, err
	}
	if ref.checkErr != nil {
		return nil, fmt.Errorf("output check: %w", ref.checkErr)
	}
	res := &result{Correct: true, Attempted: ref.readings + ref.queries, Failed: ref.failed, Metrics: map[string]metric{}}
	if !traced {
		endToEnd(res.Metrics, ref)
		return res, nil
	}
	if err := layers(res.Metrics, pr, ref, opts); err != nil {
		return nil, err
	}
	return res, nil
}

// endToEnd fills the metrics a user of the collector sees.
func endToEnd(out map[string]metric, m *measurement) {
	n := float64(m.readings)
	out["readings_per_s"] = metric{n / m.wall, "1/s"}
	out["cpu_ns_per_reading"] = metric{float64(m.c1.cpuNS-m.c0.cpuNS) / n, "ns"}
	out["verdict_p50_ms"] = metric{perSecond(m.verdict, 0.5), "ms"}
	out["verdict_p99_ms"] = metric{perSecond(m.verdict, 0.99), "ms"}
	out["ok_ratio"] = metric{1 - float64(m.failed)/float64(m.readings+m.queries), "ratio"}
	out["setup_s"] = metric{quantile(m.setup, 0.5), "s"}
	out["peak_rss_mb"] = metric{m.rss, "MiB"}
}

// quantile is the q-quantile of xs by linear interpolation (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// timed is one latency sample and when, in ns into the measured phase, it
// completed.
type timed struct {
	at int64
	ms float64
}

// perSecond is the median, over the whole seconds of the measured phase,
// of each second's q-quantile; seconds with fewer than 100 samples are left
// out, and a run with none left falls back to the run-wide quantile. A
// host stall then moves the tail of the seconds it hits, not the
// tail of the run: on a 2-vCPU VM with CPU steal, the run-wide p99 verdict
// latency of corpus-mixed spread about twice as wide across runs.
func perSecond(xs []timed, q float64) float64 {
	buckets := map[int64][]float64{}
	for _, x := range xs {
		buckets[x.at/int64(time.Second)] = append(buckets[x.at/int64(time.Second)], x.ms)
	}
	var per, all []float64
	for _, b := range buckets {
		if len(b) >= 100 {
			per = append(per, quantile(b, q))
		}
		all = append(all, b...)
	}
	if len(per) == 0 {
		return quantile(all, q)
	}
	return quantile(per, 0.5)
}
