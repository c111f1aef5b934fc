package fleet

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"sensorguard/internal/ingest"
	"sensorguard/internal/obs"
	"sensorguard/internal/sensor"
	"sensorguard/internal/vecmat"
)

// deploymentOn returns a deployment name that routes to shard k of n.
func deploymentOn(t testing.TB, prefix string, k, n int) string {
	t.Helper()
	for i := 0; i < 1000; i++ {
		if name := fmt.Sprintf("%s-%d", prefix, i); shardIndex(name, n) == k {
			return name
		}
	}
	t.Fatalf("no %s deployment routes to shard %d of %d", prefix, k, n)
	return ""
}

// plainReading is a valid reading at minute i.
func plainReading(dep string, i int) ingest.Reading {
	return ingest.Reading{Deployment: dep, Reading: sensor.Reading{
		Sensor: i % 4,
		Time:   time.Duration(i) * time.Minute,
		Values: vecmat.Vector{15, 80},
	}}
}

// stalledPool builds a DropNewest pool whose workers each sit on one
// "stall-" reading until release is called, so its queues fill
// deterministically behind them.
func stalledPool(t *testing.T, cfg Config) (p *Pool, stalls []string, release func()) {
	t.Helper()
	gate := make(chan struct{})
	entered := make(chan struct{}, cfg.Shards)
	cfg.Policy = DropNewest
	cfg.stallOn = func(r ingest.Reading) <-chan struct{} {
		if !strings.HasPrefix(r.Deployment, "stall-") {
			return nil
		}
		entered <- struct{}{}
		return gate
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for k := range cfg.Shards {
		stalls = append(stalls, deploymentOn(t, "stall", k, cfg.Shards))
		if err := p.Submit(plainReading(stalls[k], 0)); err != nil {
			t.Fatal(err)
		}
	}
	for range cfg.Shards {
		select {
		case <-entered:
		case <-time.After(5 * time.Second):
			t.Fatal("a worker never reached the stall hook")
		}
	}
	var once sync.Once
	return p, stalls, func() { once.Do(func() { close(gate) }) }
}

// TestAdmissionReleasedAfterPanicMidSlab checks the chunked capacity release
// leaks nothing: a worker panic in the middle of a slab is recovered, the
// rest of the slab is still handled, and after Drain every shard's in-flight
// count is back to zero.
func TestAdmissionReleasedAfterPanicMidSlab(t *testing.T) {
	const perDeployment = 600
	victim := deploymentOn(t, "victim", 0, 2)
	sibling := deploymentOn(t, "sibling", 0, 2)
	other := deploymentOn(t, "other", 1, 2)
	var mu sync.Mutex
	handled := map[string]int{} // both workers count here
	reg := obs.NewRegistry()
	pool, err := New(Config{
		Shards:    2,
		Seed:      1,
		Bootstrap: 1000 * time.Hour, // buffer everything: no detector work
		Metrics:   reg,
		panicOn: func(r ingest.Reading) bool {
			mu.Lock()
			defer mu.Unlock()
			handled[r.Deployment]++
			return r.Deployment == victim && r.Time == 100*time.Minute
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var batch []ingest.Reading
	for i := range perDeployment {
		batch = append(batch, plainReading(victim, i), plainReading(sibling, i), plainReading(other, i))
	}
	accepted, dropped, err := pool.SubmitBatch(batch)
	if err != nil || accepted != len(batch) || dropped != 0 {
		t.Fatalf("SubmitBatch = %d, %d, %v; want %d, 0, nil", accepted, dropped, err, len(batch))
	}
	pool.Drain()
	for _, s := range pool.shards {
		if n := s.adm.inFlight(); n != 0 {
			t.Errorf("shard %d: %d readings of capacity still held after Drain", s.id, n)
		}
	}
	if got := reg.Counter("fleet_panics_total", "").Value(); got != 1 {
		t.Errorf("fleet_panics_total = %d, want 1", got)
	}
	// The victim is quarantined at its 101st reading; its shard sibling,
	// sharing every slab with it, and the other shard lose nothing.
	if handled[victim] != 101 || handled[sibling] != perDeployment || handled[other] != perDeployment {
		t.Errorf("handled %v, want %s 101, %s and %s %d each", handled, victim, sibling, other, perDeployment)
	}
}

// TestDropNewestBatchAccounting overflows both shards of a stalled pool with
// one NDJSON body and checks the books balance: every line sent is accepted,
// rejected or dropped; the per-shard dropped counters add up to the stream's
// count; and each shard took exactly what its queue had room for.
func TestDropNewestBatchAccounting(t *testing.T) {
	// Slabs are two readings here (a quarter of the queue), so the ninth
	// unit takes one reading of a slab and sheds the other.
	const queueLen, perShard = 9, 20
	reg := obs.NewRegistry()
	pool, stalls, release := stalledPool(t, Config{Shards: 2, QueueLen: queueLen, Seed: 1, Metrics: reg})
	defer pool.Drain()
	defer release()
	deps := []string{deploymentOn(t, "a", 0, 2), deploymentOn(t, "b", 1, 2)}
	var rs []ingest.Reading
	for i := range perShard {
		rs = append(rs, plainReading(deps[0], i+1), plainReading(deps[1], i+1))
	}
	body := ndjson(t, "", rs)
	// Two lines the decoder rejects, mid-body.
	body = append(body, "not json\n{\"deployment\":\"a-0\",\"sensor\":1,\"time_s\":-1,\"values\":[1]}\n"...)
	body = append(body, ndjson(t, "", rs[:4])...)
	sent := len(rs) + 2 + 4

	st, err := ingest.ReadStream(bytes.NewReader(body), pool, ingest.StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Accepted+st.Rejected+st.Dropped != sent {
		t.Errorf("stats %+v do not cover the %d lines sent", st, sent)
	}
	if st.Rejected != 2 || st.RejectedDecode != 2 {
		t.Errorf("stats %+v, want 2 rejected decodes", st)
	}
	if st.Accepted != 2*queueLen {
		t.Errorf("accepted %d, want %d (each shard's queue, to the last unit)", st.Accepted, 2*queueLen)
	}
	var droppedTotal uint64
	for k := range 2 {
		droppedTotal += reg.Counter(fmt.Sprintf("fleet_shard%d_dropped_total", k), "").Value()
	}
	if droppedTotal != uint64(st.Dropped) {
		t.Errorf("per-shard dropped counters sum to %d, stream dropped %d", droppedTotal, st.Dropped)
	}
	release()
	pool.Drain()
	if got, want := reg.Counter("fleet_readings_total", "").Value(), uint64(st.Accepted+len(stalls)); got != want {
		t.Errorf("fleet_readings_total = %d, want %d", got, want)
	}
}

// TestSubmitBatchInvalidPrefix pins SubmitBatch's prefix semantics: an
// invalid reading ends the batch, the valid prefix before it is admitted,
// and the counts, the queue-wait histogram and its stage clock cover
// exactly that prefix.
func TestSubmitBatchInvalidPrefix(t *testing.T) {
	reg := obs.NewRegistry()
	pool, err := New(Config{Shards: 2, Seed: 1, Bootstrap: 1000 * time.Hour, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	var rs []ingest.Reading
	for i := range 10 {
		rs = append(rs, plainReading(fmt.Sprintf("dep-%d", i%3), i))
	}
	rs[6].Values = nil
	accepted, dropped, err := pool.SubmitBatch(rs)
	var ire *ingest.InvalidReadingError
	if !errors.As(err, &ire) || accepted != 6 || dropped != 0 {
		t.Errorf("SubmitBatch = %d, %d, %v; want 6, 0, an *ingest.InvalidReadingError", accepted, dropped, err)
	}
	pool.Drain()
	if got := reg.Counter("fleet_readings_total", "").Value(); got != 6 {
		t.Errorf("fleet_readings_total = %d, want the 6-reading prefix", got)
	}
	// Queue wait is observed per slab but still counts readings.
	if got := reg.Histogram("fleet_queue_wait_seconds", "", nil).Count(); got != 6 {
		t.Errorf("fleet_queue_wait_seconds counted %d observations, want 6 readings", got)
	}
	if got := reg.Counter(`fleet_stage_units_total{stage="queue_wait"}`, "").Value(); got != 6 {
		t.Errorf("queue_wait stage clock counted %d units, want 6 readings", got)
	}
}

// TestTraceStampSurvivesShedReading sends a sampled NDJSON stream whose
// first reading routes to a full shard. The stream's trace stamp must still
// ride exactly one accepted reading through the queue.
func TestTraceStampSurvivesShedReading(t *testing.T) {
	tracer := obs.NewTracer(obs.TracerConfig{SampleEvery: 1, MaxSpans: 1024})
	pool, _, release := stalledPool(t, Config{Shards: 2, QueueLen: 4, Seed: 1, Tracer: tracer,
		Bootstrap: 1000 * time.Hour})
	defer pool.Drain()
	defer release()
	full, open := deploymentOn(t, "full", 0, 2), deploymentOn(t, "open", 1, 2)
	var fill []ingest.Reading
	for i := range 4 {
		fill = append(fill, plainReading(full, i+1))
	}
	if accepted, _, err := pool.SubmitBatch(fill); err != nil || accepted != 4 {
		t.Fatalf("filling shard 0: accepted %d, err %v", accepted, err)
	}
	var rs []ingest.Reading
	for i := range 3 {
		rs = append(rs, plainReading(full, i+10), plainReading(open, i+10))
	}
	st, err := ingest.ReadStream(bytes.NewReader(ndjson(t, "", rs)), pool, ingest.StreamOptions{Tracer: tracer})
	if err != nil || st.Accepted != 3 || st.Dropped != 3 {
		t.Fatalf("stats %+v err %v, want 3 accepted, 3 dropped", st, err)
	}
	release()
	pool.Drain()
	traces := tracer.Traces()
	if len(traces) != 1 {
		t.Fatalf("%d traces recorded, want the stream's one", len(traces))
	}
	waits := 0
	for _, sp := range traces[0].Spans {
		if sp.Name == "ingest.queue_wait" {
			waits++
		}
	}
	if waits != 1 {
		t.Errorf("stream trace has %d ingest.queue_wait spans, want exactly 1: %v", waits, spanNames(traces[0].Spans))
	}
}

// TestTCPTrickleReachesPool writes one NDJSON line to a TCP ingest socket and
// pauses: the reading must reach the pool before the next line is sent, so
// batching never holds a slow producer's readings back.
func TestTCPTrickleReachesPool(t *testing.T) {
	reg := obs.NewRegistry()
	pool, err := New(Config{Shards: 2, Seed: 1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Drain()
	srv, err := ingest.ServeTCPStaged("127.0.0.1:0", pool, ingest.DefaultTCPIdleTimeout, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	accepted := reg.Counter("fleet_readings_total", "")
	for i := range 3 {
		if _, err := conn.Write(ndjson(t, "", []ingest.Reading{plainReading("trickle", i)})); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for accepted.Value() < uint64(i+1) {
			if time.Now().After(deadline) {
				t.Fatalf("line %d never reached the pool while the producer paused", i+1)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// maxSubmitBatchAllocs bounds steady-state Pool.SubmitBatch of a 500-reading
// two-shard batch: slabs come from a pool and go back to it, so none are
// allocated. Measured at 0; a slab allocated per batch per shard adds 2 or
// more.
const maxSubmitBatchAllocs = 0

func TestSubmitBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops pooled slabs at random")
	}
	deps := []string{deploymentOn(t, "a", 0, 2), deploymentOn(t, "b", 1, 2)}
	pool, err := New(Config{
		Shards:  2,
		Seed:    1,
		panicOn: func(r ingest.Reading) bool { return r.Sensor < 0 },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Drain()
	// Quarantine both deployments first (a poisoned reading each), so the
	// workers swallow the measured readings without allocating themselves.
	var rs []ingest.Reading
	for _, dep := range deps {
		poison := plainReading(dep, 0)
		poison.Sensor = -1
		rs = append(rs, poison)
	}
	if _, _, err := pool.SubmitBatch(rs); err != nil {
		t.Fatal(err)
	}
	rs = rs[:0]
	for i := range 250 {
		rs = append(rs, plainReading(deps[0], i+1), plainReading(deps[1], i+1))
	}
	allocs := testing.AllocsPerRun(200, func() {
		if accepted, _, err := pool.SubmitBatch(rs); err != nil || accepted != len(rs) {
			t.Fatalf("SubmitBatch accepted %d, err %v", accepted, err)
		}
	})
	if allocs > maxSubmitBatchAllocs {
		t.Errorf("SubmitBatch allocated %.1f times per 500-reading batch, bound %d", allocs, maxSubmitBatchAllocs)
	}
}

// TestBlockingProducersShareASmallQueue has producers of slabs and of single
// readings contend for one shard's eight units of capacity under Block:
// every reading must get in, in per-producer order, with no producer stuck
// waiting once the worker has worked its queue off.
func TestBlockingProducersShareASmallQueue(t *testing.T) {
	const producers, perProducer = 6, 400
	var mu sync.Mutex
	last := map[string]time.Duration{}
	count := map[string]int{}
	outOfOrder := 0
	pool, err := New(Config{
		Shards:    1,
		QueueLen:  8,
		Seed:      1,
		Bootstrap: 1000 * time.Hour,
		panicOn: func(r ingest.Reading) bool {
			mu.Lock()
			defer mu.Unlock()
			if r.Time <= last[r.Deployment] && r.Time > 0 {
				outOfOrder++
			}
			last[r.Deployment] = r.Time
			count[r.Deployment]++
			return false
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := range producers {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			dep := fmt.Sprintf("producer-%d", g)
			for i := 0; i < perProducer; {
				n := 1 + (g%3)*3 // slabs of 1, 4 and 7 readings
				var rs []ingest.Reading
				for ; len(rs) < n && i < perProducer; i++ {
					rs = append(rs, plainReading(dep, i))
				}
				if accepted, dropped, err := pool.SubmitBatch(rs); err != nil || accepted != len(rs) || dropped != 0 {
					t.Errorf("%s: SubmitBatch = %d, %d, %v", dep, accepted, dropped, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	pool.Drain()
	if n := pool.shards[0].adm.inFlight(); n != 0 || len(pool.shards[0].adm.line) != 0 {
		t.Errorf("after Drain: %d units held, %d takers waiting", n, len(pool.shards[0].adm.line))
	}
	if outOfOrder != 0 {
		t.Errorf("%d readings applied out of their producer's order", outOfOrder)
	}
	for g := range producers {
		if dep := fmt.Sprintf("producer-%d", g); count[dep] != perProducer {
			t.Errorf("%s: %d readings applied, want %d", dep, count[dep], perProducer)
		}
	}
}
