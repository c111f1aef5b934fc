package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"sensorguard/internal/core"
	"sensorguard/internal/fleet"
	"sensorguard/internal/ingest"
	"sensorguard/internal/obs"
	"sensorguard/internal/obs/tsdb"
	"sensorguard/internal/vecmat"
)

// instruments selects sentinel serve's default observability, one
// switch per instrument, so each can be priced by turning it off.
type instruments struct {
	tracer, tsdb, health, decisions, metrics bool
}

var allInstruments = instruments{tracer: true, tsdb: true, health: true, decisions: true, metrics: true}

// server is one pool behind its real listeners.
type server struct {
	pool *fleet.Pool
	reg  *obs.Registry
	db   *tsdb.DB
	http *http.Server
	url  string
	tcp  *ingest.TCPServer
	dir  string // journal root, removed on close

	// accepted and dropped count readings the pool took off the wire
	// (nil-safe when the metrics registry is off).
	accepted *obs.Counter
	dropped  [2]*obs.Counter
}

// startServer builds the pool the way sentinel serve does with its default
// flags (metrics registry, 1-in-16 tracer sampling over 64 traces,
// 256-record decision rings, a 1 s / 15 min TSDB sampler, health trackers)
// plus the audit log, then starts the HTTP and, for TCP workloads, the TCP
// listener, and returns once /healthz answers.
func startServer(w *workload, in instruments, tr *tracer, audit *auditWriter, scratch string) (*server, error) {
	s := &server{}
	cfg := fleet.Config{
		Shards:        2,
		Window:        w.window,
		Seed:          poolSeed,
		States:        poolStates,
		Bootstrap:     poolBootstrap,
		AuditLog:      audit,
		DisableHealth: !in.health,
	}
	if in.metrics {
		s.reg = obs.NewRegistry()
		cfg.Metrics = s.reg
	}
	if in.tracer {
		cfg.Tracer = obs.NewTracer(obs.TracerConfig{SampleEvery: 16, MaxTraces: 64})
	}
	if in.decisions {
		cfg.DecisionBuffer = 256
	}
	if in.tsdb && s.reg != nil {
		s.db = tsdb.New(tsdb.Config{Registry: s.reg, Resolution: time.Second, Retention: 15 * time.Minute})
		s.db.Start()
		cfg.TSDB = s.db
	}
	if w.journal {
		dir, err := os.MkdirTemp(scratch, "journal-")
		if err != nil {
			s.close()
			return nil, err
		}
		s.dir = dir
		cfg.Durability = fleet.Durability{Dir: dir, Interval: checkpointInterval}
		if tr != nil {
			cfg.Durability.FS = tr.fs
		}
	}
	if tr != nil {
		ob := &obs.Observer{Metrics: s.reg, Sink: tr}
		window := w.window
		cfg.NewDetector = func(seeds []vecmat.Vector) (*core.Detector, error) {
			return newDetector(seeds, window, ob)
		}
	}
	pool, err := fleet.New(cfg)
	if err != nil {
		s.close()
		return nil, err
	}
	s.pool = pool
	if s.reg != nil { // registered by fleet.New
		s.accepted = s.reg.Counter("fleet_readings_total", "")
		s.dropped = [2]*obs.Counter{s.reg.Counter("fleet_shard0_dropped_total", ""), s.reg.Counter("fleet_shard1_dropped_total", "")}
	}

	var consumer ingest.Consumer = pool
	handler := fleet.Handler(pool, s.reg)
	if tr != nil {
		consumer = tr.consumer(pool)
		handler = tr.mux(pool, handler)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.close()
		return nil, err
	}
	s.http = &http.Server{Handler: handler, ReadHeaderTimeout: 5 * time.Second}
	s.url = "http://" + ln.Addr().String()
	go func() { _ = s.http.Serve(ln) }()
	if w.tcp {
		s.tcp, err = ingest.ServeTCPStaged("127.0.0.1:0", consumer, ingest.DefaultTCPIdleTimeout, pool.Tracer(), pool.DecodeClock())
		if err != nil {
			s.close()
			return nil, err
		}
		// The listener is bound before ServeTCPStaged returns; one dial
		// proves it accepts.
		c, err := net.Dial("tcp", s.tcp.Addr())
		if err != nil {
			s.close()
			return nil, err
		}
		c.Close()
	}
	probe := &http.Client{Timeout: 10 * time.Second}
	defer probe.CloseIdleConnections()
	resp, err := probe.Get(s.url + "/healthz")
	if err != nil {
		s.close()
		return nil, err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		s.close()
		return nil, fmt.Errorf("/healthz answered %d", resp.StatusCode)
	}
	return s, nil
}

// checkpointInterval is the journal workload's wall-clock checkpoint
// cadence: short enough that every measured phase writes checkpoints (and
// prunes journal segments), where sentinel's 1 min default would write none.
const checkpointInterval = 2 * time.Second

// close stops the listeners, drains the pool, and removes the journal.
func (s *server) close() {
	if s.http != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = s.http.Shutdown(ctx)
		cancel()
	}
	if s.tcp != nil {
		s.tcp.Close()
	}
	if s.pool != nil {
		s.pool.Drain()
	}
	if s.db != nil {
		s.db.Close()
	}
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
}

// counter reads a pool counter from the registry (0 with metrics off).
func (s *server) counter(name string) uint64 {
	if s.reg == nil {
		return 0
	}
	return s.reg.Counter(name, "").Value()
}

// taken is how many shipped readings the pool has taken off the wire:
// accepted into a shard queue or dropped.
func (s *server) taken() int64 {
	return int64(s.accepted.Value() + s.dropped[0].Value() + s.dropped[1].Value())
}

// shardSum sums a per-shard counter over both shards.
func (s *server) shardSum(suffix string) uint64 {
	return s.counter("fleet_shard0_"+suffix) + s.counter("fleet_shard1_"+suffix)
}

// stageBusy returns a stage clock's cumulative busy nanoseconds.
func (s *server) stageBusy(stage string) uint64 {
	return s.counter(`fleet_stage_busy_ns_total{stage="` + stage + `"}`)
}

// stageUnits returns a stage clock's cumulative units.
func (s *server) stageUnits(stage string) uint64 {
	return s.counter(`fleet_stage_units_total{stage="` + stage + `"}`)
}

// auditWriter is the pool's audit log. It keeps no bytes: each decision
// record (one Write per record, from core.DecisionLog) is stamped with its
// arrival time and reduced to its deployment and window.
type auditWriter struct {
	epoch time.Time
	index map[string]int

	mu     sync.Mutex
	counts []int
	recs   []verdict
}

type verdict struct {
	d, w int32
	at   int64 // ns since epoch
}

func newAuditWriter(epoch time.Time, deps []string) *auditWriter {
	a := &auditWriter{epoch: epoch, index: map[string]int{}, counts: make([]int, len(deps))}
	for i, d := range deps {
		a.index[d] = i
	}
	return a
}

var (
	depKey    = []byte(`{"deployment":"`)
	windowKey = []byte(`","window":`)
)

// Write parses the record's leading `{"deployment":"…","window":N` — the
// field order of core.DecisionRecord.
func (a *auditWriter) Write(p []byte) (int, error) {
	at := time.Since(a.epoch).Nanoseconds()
	if !bytes.HasPrefix(p, depKey) {
		return 0, errors.New("audit record without a deployment")
	}
	rest := p[len(depKey):]
	end := bytes.Index(rest, windowKey)
	if end < 0 {
		return 0, errors.New("audit record without a window")
	}
	d, ok := a.index[string(rest[:end])]
	if !ok {
		return 0, fmt.Errorf("audit record for unknown deployment %q", rest[:end])
	}
	num := rest[end+len(windowKey):]
	n := 0
	for n < len(num) && num[n] >= '0' && num[n] <= '9' {
		n++
	}
	win, err := strconv.Atoi(string(num[:n]))
	if err != nil {
		return 0, fmt.Errorf("audit record window: %w", err)
	}
	a.mu.Lock()
	a.counts[d]++
	a.recs = append(a.recs, verdict{int32(d), int32(win), at})
	a.mu.Unlock()
	return len(p), nil
}
