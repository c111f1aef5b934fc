package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"sensorguard/internal/obs"
)

// prepared is a workload's input plus everything derived from it once per
// process: the NDJSON line templates and each reading's window closings.
type prepared struct {
	w         *workload
	feed      *feed
	templates [][]lineTemplate
	closes    [][][]int32 // [deployment][reading] → windows closed, pass-relative
	wpp       []int       // windows per pass, per deployment
}

func prepare(w *workload, seed int64) (*prepared, error) {
	f, err := w.build(seed)
	if err != nil {
		return nil, err
	}
	f.passes(w.window)
	pr := &prepared{w: w, feed: f}
	for _, sh := range f.shift {
		pr.wpp = append(pr.wpp, int(sh/w.window))
	}
	if w.codec == codecNDJSON {
		pr.templates = make([][]lineTemplate, len(f.deps))
		for d, rs := range f.streams {
			pr.templates[d] = make([]lineTemplate, len(rs))
			for i, r := range rs {
				if pr.templates[d][i], err = newLineTemplate(r); err != nil {
					return nil, err
				}
			}
		}
	}
	if pr.closes, err = f.closing(w.window, w.wire()); err != nil {
		return nil, err
	}
	return pr, nil
}

// sessionOpts selects what one session runs.
type sessionOpts struct {
	seconds float64
	setups  int // pool set-ups timed; the last one serves the run
	in      instruments
	traced  bool
	check   bool
	scratch string
}

// session is one pool's life: set-up, warm-up, measured phase, drain, check.
type session struct {
	*prepared
	opts  sessionOpts
	srv   *server
	tr    *tracer
	epoch time.Time

	sent     atomic.Int64 // readings shipped over every connection
	abort    atomic.Bool  // set when warm-up failed: skip the measured phase
	warmed   sync.WaitGroup
	start    chan struct{}
	t0       time.Time
	deadline time.Time
}

// counters is every cumulative number the measured phase takes a delta of.
type counters struct {
	at                            time.Time
	cpuNS                         int64
	allocBytes, gcCPU, totalCPU   float64
	stageBusy, stageUnits         map[string]uint64
	queueWait                     obs.HistogramSnapshot
	late, dropped, dups           uint64
	handlerNS, submitNS, queryNS  int64
	jWrites, jBytes, cWrites, cBy int64
	ckpts                         int64
}

var stages = []string{"ingest_decode", "journal_append", "queue_wait", "window_admit", "detector_step", "checkpoint"}

func (s *session) snapshot() counters {
	c := counters{at: time.Now(), cpuNS: cpuTime(), stageBusy: map[string]uint64{}, stageUnits: map[string]uint64{}}
	samples := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	c.allocBytes = float64(samples[0].Value.Uint64())
	c.gcCPU = samples[1].Value.Float64()
	c.totalCPU = samples[2].Value.Float64()
	for _, st := range stages {
		c.stageBusy[st] = s.srv.stageBusy(st)
		c.stageUnits[st] = s.srv.stageUnits(st)
	}
	if s.srv.reg != nil {
		c.queueWait = s.srv.reg.Histogram("fleet_queue_wait_seconds", "", nil).Snapshot()
	}
	c.late = s.srv.shardSum("late_dropped_total")
	c.dropped = s.srv.shardSum("dropped_total")
	c.dups = s.srv.shardSum("duplicates_total")
	if t := s.tr; t != nil {
		c.handlerNS, c.submitNS, c.queryNS = t.handlerNS.Load(), t.submitNS.Load(), t.queryNS.Load()
		c.jWrites, c.jBytes = t.fs.journalWrites.Load(), t.fs.journalBytes.Load()
		c.cWrites, c.cBy, c.ckpts = t.fs.ckptWrites.Load(), t.fs.ckptBytes.Load(), t.fs.ckpts.Load()
	}
	return c
}

// cpuTime is the process's user+system CPU time in ns.
func cpuTime() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// peakRSS is the process's peak resident set in MiB.
func peakRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// measurement is one session's raw observations.
type measurement struct {
	setup    []float64 // s
	readings int       // measured-phase readings
	queries  int       // measured-phase queries
	failed   int       // measured-phase failed operations
	wall     float64   // s
	c0, c1   counters
	ack, lag []float64 // ms
	verdict  []timed   // ms, stamped when the audit writer got the record
	queryLat [3][]float64
	bytes    int64
	rss      float64
	perShard [2]int // readings sent per shard, measured phase
	steps    []obs.StageLatency
	reports  []float64
	outcome  outcome // what the output check saw
	checkErr error
}

func runSession(pr *prepared, opts sessionOpts) (*measurement, error) {
	s := &session{prepared: pr, opts: opts, epoch: time.Now(), start: make(chan struct{})}
	if opts.traced {
		s.tr = newTracer(s.epoch)
	}
	f := pr.feed
	audit := newAuditWriter(s.epoch, f.deps)
	m := &measurement{}
	for k := 0; k < opts.setups; k++ {
		// Collect the garbage input generation and earlier set-ups left,
		// so a GC cycle does not land inside the timed set-up.
		runtime.GC()
		start := time.Now()
		srv, err := startServer(pr.w, opts.in, s.tr, audit, opts.scratch)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		m.setup = append(m.setup, time.Since(start).Seconds())
		if k < opts.setups-1 {
			srv.close()
			continue
		}
		s.srv = srv
	}
	defer s.srv.close()

	conns := pr.w.conns
	clients := make([]*client, conns)
	for i := range clients {
		c := &client{id: i, order: f.order(i), closedAt: map[int64]int64{}}
		if pr.w.tcp {
			conn, err := net.Dial("tcp", s.srv.tcp.Addr())
			if err != nil {
				return nil, err
			}
			c.tcp = conn
			c.send = func(b []byte, n int) error { return s.writeFrame(c, b, n) }
		} else {
			c.http = &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{
				MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
			}}
			c.send = func(b []byte, n int) error { return s.postIngest(c, b, n) }
		}
		clients[i] = c
	}
	s.warmed.Add(conns)
	errs := make([]error, conns)
	var done sync.WaitGroup
	for i, c := range clients {
		done.Add(1)
		go func() {
			defer done.Done()
			errs[i] = s.ship(c)
			if !c.warmed {
				s.warmed.Done() // failed during warm-up
			}
			if c.tcp != nil {
				c.tcp.Close()
			}
			if c.http != nil {
				c.http.CloseIdleConnections()
			}
		}()
	}
	s.warmed.Wait()
	if err := errors.Join(errs...); err != nil {
		s.abort.Store(true)
		close(s.start)
		done.Wait()
		return nil, err
	}
	warmSent := 0
	for _, c := range clients {
		warmSent += c.sent
	}
	if err := s.awaitAccepted(warmSent); err != nil {
		s.abort.Store(true)
		close(s.start)
		done.Wait()
		return nil, err
	}
	runtime.GC()
	m.c0 = s.snapshot()
	s.t0 = m.c0.at
	s.deadline = s.t0.Add(time.Duration(opts.seconds * float64(time.Second)))
	if s.tr != nil {
		s.tr.on.Store(true)
	}
	close(s.start)

	stop := make(chan struct{})
	var polled sync.WaitGroup
	var qAttempted, qFailed int
	if pr.w.queryRate > 0 {
		qc := &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
		polled.Add(1)
		go func() {
			defer polled.Done()
			m.queryLat, qAttempted, qFailed = s.poll(qc, stop)
			qc.CloseIdleConnections()
		}()
	}
	done.Wait()
	close(stop)
	polled.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	sent := 0
	for _, c := range clients {
		sent += c.sent
	}
	if pr.w.tcp {
		if err := s.awaitAccepted(sent); err != nil {
			return nil, err
		}
	}
	s.srv.pool.Drain()
	m.c1 = s.snapshot()
	if s.tr != nil {
		s.tr.on.Store(false)
	}
	m.rss = peakRSS()
	m.wall = m.c1.at.Sub(m.c0.at).Seconds()
	m.queries = qAttempted
	m.failed = qFailed

	passes := make([]int, len(f.deps))
	closedAt := map[int64]int64{}
	for _, c := range clients {
		m.readings += c.measured
		m.failed += c.failed
		m.bytes += c.bytes
		m.ack = append(m.ack, c.ack...)
		m.lag = append(m.lag, c.lag...)
		for k, v := range c.closedAt {
			closedAt[k] = v
		}
		for d, o := range f.owner {
			if o == c.id {
				passes[d] = c.passes
			}
		}
	}
	for d, dep := range f.deps {
		n := (passes[d] - pr.w.warm) * len(f.streams[d])
		m.perShard[shardOf(dep)] += n
	}
	audit.mu.Lock()
	for _, v := range audit.recs {
		if at, ok := closedAt[int64(v.d)<<32|int64(v.w)]; ok {
			m.verdict = append(m.verdict, timed{v.at - s.t0.Sub(s.epoch).Nanoseconds(), float64(v.at-at) / 1e6})
		}
	}
	counts := append([]int(nil), audit.counts...)
	audit.mu.Unlock()
	if s.tr != nil {
		m.steps, m.reports = s.tr.steps, s.tr.reports
		if err := s.tr.write(filepath.Join(opts.scratch, "spans-"+pr.w.name+".json")); err != nil {
			return nil, err
		}
	}
	if !opts.check {
		return m, nil
	}

	o := outcome{sent: sent, deps: f.deps, got: make([]served, len(f.deps))}
	if pr.w.tcp {
		o.accepted = int(s.srv.counter("fleet_readings_total"))
		o.dropped = int(m.c1.dropped)
	} else {
		for _, c := range clients {
			o.accepted += c.stats.Accepted
			o.rejected += c.stats.Rejected
			o.dropped += c.stats.Dropped
		}
	}
	o.duplicates = int(m.c1.dups)
	for d, dep := range f.deps {
		rep, err := s.srv.pool.Report(dep)
		if err != nil {
			return nil, fmt.Errorf("report %s: %w", dep, err)
		}
		st, err := s.srv.pool.Status(dep)
		if err != nil {
			return nil, fmt.Errorf("status %s: %w", dep, err)
		}
		o.got[d] = served{report: rep, stats: st.Detector, verdicts: counts[d]}
	}
	var err error
	if o.want, o.wantDuplicates, err = replayAll(f, passes, pr.w.window, pr.w.wire()); err != nil {
		return nil, err
	}
	m.outcome = o
	m.checkErr = check(o)
	return m, nil
}

// awaitAccepted waits until the pool has taken every sent reading off the
// wire (accepted or dropped): a TCP sender cannot see that itself.
func (s *session) awaitAccepted(sent int) error {
	if !s.w.tcp {
		return nil
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		got := int(s.srv.taken())
		if got == sent {
			return nil
		}
		if got > sent || time.Now().After(deadline) {
			return fmt.Errorf("accounting: pool took %d of %d readings sent over TCP", got, sent)
		}
		time.Sleep(time.Millisecond)
	}
}

// shardOf mirrors the pool's routing (FNV-1a over the key, mod 2 shards).
func shardOf(dep string) int {
	h := uint32(2166136261)
	for i := 0; i < len(dep); i++ {
		h ^= uint32(dep[i])
		h *= 16777619
	}
	return int(h % 2)
}
