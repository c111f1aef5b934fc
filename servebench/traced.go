package main

import (
	"encoding/json"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sensorguard/internal/chaos"
	"sensorguard/internal/fleet"
	"sensorguard/internal/ingest"
	"sensorguard/internal/obs"
)

// tracer is the traced run's instrumentation, all of it in the benchmark's
// own code around the calls it makes into each layer's public functions:
// spans and busy-time counts at the ingest handler, the pool's submit
// path, the query routes, and Pool.Report; per-window core stage latencies
// from an obs.Observer sink; and write counts from a counting chaos.FS.
type tracer struct {
	epoch time.Time
	fs    *countingFS

	// on gates the per-window and per-span records to the measured phase.
	on atomic.Bool

	handlerNS, handlerCalls atomic.Int64 // POST /ingest wall time
	submitNS, submitted     atomic.Int64 // Pool.Submit/SubmitBatch wall time, readings
	queryNS, queries        atomic.Int64 // every other route's wall time

	mu      sync.Mutex
	spans   []span
	dropped int
	reports []float64          // Pool.Report ms
	steps   []obs.StageLatency // one per window stepped
}

// span is one recorded interval; parent indexes spans (-1 = root).
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	N       int    `json:"n,omitempty"`
}

// maxSpans bounds the retained spans; later ones are counted only.
const maxSpans = 200000

func newTracer(epoch time.Time) *tracer {
	return &tracer{epoch: epoch, fs: &countingFS{FS: chaos.OS}}
}

func (t *tracer) since(at time.Time) int64 { return at.Sub(t.epoch).Nanoseconds() }

// record retains a span and returns its index (-1 when not retained).
func (t *tracer) record(name string, start, end time.Time, parent, n int) int {
	if !t.on.Load() {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{name, t.since(start), t.since(end), parent, n})
	return len(t.spans) - 1
}

// Emit is the detector observer's event sink: one event per stepped window.
func (t *tracer) Emit(ev obs.Event) {
	if !t.on.Load() {
		return
	}
	t.mu.Lock()
	t.steps = append(t.steps, ev.Latency)
	t.mu.Unlock()
}

// consumer wraps the pool as the listeners' ingest.Consumer, timing every
// Submit and SubmitBatch.
func (t *tracer) consumer(p *fleet.Pool) ingest.BatchConsumer { return &timedConsumer{t: t, p: p} }

type timedConsumer struct {
	t *tracer
	p *fleet.Pool
}

func (c *timedConsumer) Submit(r ingest.Reading) error {
	start := time.Now()
	err := c.p.Submit(r)
	c.t.submitNS.Add(int64(time.Since(start)))
	c.t.submitted.Add(1)
	return err
}

func (c *timedConsumer) SubmitBatch(rs []ingest.Reading) (int, int, error) {
	start := time.Now()
	accepted, dropped, err := c.p.SubmitBatch(rs)
	end := time.Now()
	c.t.submitNS.Add(int64(end.Sub(start)))
	c.t.submitted.Add(int64(len(rs)))
	c.t.record("fleet.submit_batch", start, end, -1, len(rs))
	return accepted, dropped, err
}

// mux serves POST /ingest through the timed consumer and GET
// /report/{deployment} through a timed Pool.Report, and every other route
// from the pool's own handler, timed as a query.
func (t *tracer) mux(p *fleet.Pool, rest http.Handler) http.Handler {
	ingestH := ingest.IngestHandlerStaged(t.consumer(p), p.Tracer(), p.DecodeClock())
	mux := http.NewServeMux()
	mux.HandleFunc("POST /ingest", func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		ingestH(w, r)
		end := time.Now()
		t.handlerNS.Add(int64(end.Sub(start)))
		t.handlerCalls.Add(1)
		t.record("ingest.handler", start, end, -1, 0)
	})
	mux.HandleFunc("GET /report/{deployment}", func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rep, err := p.Report(r.PathValue("deployment"))
		mid := time.Now()
		if err == nil {
			var data []byte
			if data, err = rep.MarshalIndentJSON(); err == nil {
				w.Header().Set("Content-Type", "application/json; charset=utf-8")
				_, _ = w.Write(append(data, '\n'))
			}
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
		}
		end := time.Now()
		t.queryNS.Add(int64(end.Sub(start)))
		t.queries.Add(1)
		root := t.record("query.report", start, end, -1, 0)
		t.record("fleet.report", start, mid, root, 0)
		if t.on.Load() {
			t.mu.Lock()
			t.reports = append(t.reports, float64(mid.Sub(start))/1e6)
			t.mu.Unlock()
		}
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rest.ServeHTTP(w, r)
		end := time.Now()
		t.queryNS.Add(int64(end.Sub(start)))
		t.queries.Add(1)
		t.record("query."+strings.SplitN(strings.TrimPrefix(r.URL.Path, "/"), "/", 2)[0], start, end, -1, 0)
	})
	return mux
}

// write saves the retained spans as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Spans   []span `json:"spans"`
		Dropped int    `json:"dropped"`
	}{t.spans, t.dropped})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// countingFS is a chaos.FS that counts write calls and bytes per file
// class — journal segments and checkpoints — so group-commit amortisation
// and state size are measured from outside the pool.
type countingFS struct {
	chaos.FS
	journalWrites, journalBytes atomic.Int64
	ckptWrites, ckptBytes       atomic.Int64
	ckpts                       atomic.Int64 // checkpoint files renamed into place
}

func (c *countingFS) OpenFile(name string, flag int, perm fs.FileMode) (chaos.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	base := filepath.Base(name)
	switch {
	case strings.HasPrefix(base, "journal-"):
		return &countingFile{File: f, writes: &c.journalWrites, bytes: &c.journalBytes}, nil
	case strings.HasPrefix(base, "checkpoint-"):
		return &countingFile{File: f, writes: &c.ckptWrites, bytes: &c.ckptBytes}, nil
	}
	return f, nil
}

func (c *countingFS) Rename(oldpath, newpath string) error {
	err := c.FS.Rename(oldpath, newpath)
	if err == nil && strings.HasPrefix(filepath.Base(newpath), "checkpoint-") {
		c.ckpts.Add(1)
	}
	return err
}

type countingFile struct {
	chaos.File
	writes, bytes *atomic.Int64
}

func (f *countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.writes.Add(1)
	f.bytes.Add(int64(n))
	return n, err
}
