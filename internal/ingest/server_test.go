package ingest

import (
	"fmt"
	"net"
	"sync"
	"syscall"
	"testing"
	"time"

	"sensorguard/internal/chaos"
	"sensorguard/internal/obs"
	"sensorguard/internal/vecmat"
)

// collectConsumer records every submitted reading.
type collectConsumer struct {
	mu       sync.Mutex
	readings []Reading
}

func (c *collectConsumer) Submit(r Reading) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.readings = append(c.readings, r)
	return nil
}

func (c *collectConsumer) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.readings)
}

func ingestLine(t *testing.T, seconds int) []byte {
	t.Helper()
	r := Reading{Deployment: "gdi"}
	r.Time = time.Duration(seconds) * time.Second
	r.Values = vecmat.Vector{12.5, 94}
	line, err := EncodeLine(r)
	if err != nil {
		t.Fatal(err)
	}
	return append(line, '\n')
}

// waitFor polls cond until it holds or the deadline lapses.
func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestTCPServerDeliversStream(t *testing.T) {
	sink := &collectConsumer{}
	srv, err := ServeTCPStaged("127.0.0.1:0", sink, DefaultTCPIdleTimeout, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := conn.Write(ingestLine(t, 300*(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	conn.Close()
	waitFor(t, 2*time.Second, func() bool { return sink.count() == 5 },
		fmt.Sprintf("server delivered %d of 5 readings", sink.count()))
}

// TestTCPAcceptRetriesTransientErrors pins the accept-loop fix: temporary
// accept failures (EMFILE-style descriptor exhaustion) must not kill the
// listener — the loop backs off, retries, and the next accept serves.
func TestTCPAcceptRetriesTransientErrors(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := chaos.WrapListener(inner)
	ln.FailNextAccepts(4, syscall.EMFILE)

	sink := &collectConsumer{}
	srv := serveTCP(ln, sink, 0, StreamOptions{})
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(ingestLine(t, 300)); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	waitFor(t, 5*time.Second, func() bool { return sink.count() == 1 },
		"listener never recovered from transient accept errors")
	if got := ln.Accepted(); got != 1 {
		t.Fatalf("listener accepted %d connections, want 1", got)
	}
}

// TestTCPListenerSeamFeedsDecodeClock: streams served through a wrapped
// listener run the same loop as ServeTCPStaged, so their decode time reaches
// the ingest_decode stage clock, one unit per reading.
func TestTCPListenerSeamFeedsDecodeClock(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stages := obs.NewStageSet(obs.NewRegistry(), "ingest_decode")
	sink := &collectConsumer{}
	srv := serveTCP(chaos.WrapListener(inner), sink, 0, StreamOptions{Decode: stages.Clock("ingest_decode")})
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	const n = 25
	for i := 0; i < n; i++ {
		if _, err := conn.Write(ingestLine(t, 300*(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	conn.Close()
	units := func() uint64 { return stages.Snapshot(time.Now()).Units["ingest_decode"] }
	waitFor(t, 5*time.Second, func() bool { return units() == n },
		fmt.Sprintf("decode clock never reached %d units", n))
	if sink.count() != n {
		t.Fatalf("consumer got %d readings, want %d", sink.count(), n)
	}
}

// TestTCPIdleTimeoutSeversStalledConn checks the half-open-client defence: a
// connection that goes silent past the idle timeout is severed by the server.
func TestTCPIdleTimeoutSeversStalledConn(t *testing.T) {
	sink := &collectConsumer{}
	srv, err := ServeTCPStaged("127.0.0.1:0", sink, 80*time.Millisecond, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(ingestLine(t, 300)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return sink.count() == 1 },
		"reading before the stall never arrived")

	// Go silent. The server must close its end; our read then fails.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("connection still open long after the idle timeout")
	}
}

// TestTCPIdleTimeoutSparesLiveProducer checks the deadline resets per read: a
// producer pausing less than the idle timeout between lines — but streaming
// for several multiples of it overall — is never cut off.
func TestTCPIdleTimeoutSparesLiveProducer(t *testing.T) {
	sink := &collectConsumer{}
	srv, err := ServeTCPStaged("127.0.0.1:0", sink, 150*time.Millisecond, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	const n = 12 // 12 × 50ms = 600ms of streaming, 4× the idle timeout
	for i := 0; i < n; i++ {
		if _, err := conn.Write(ingestLine(t, 300*(i+1))); err != nil {
			t.Fatalf("write %d failed — live producer was severed: %v", i, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	waitFor(t, 2*time.Second, func() bool { return sink.count() == n },
		fmt.Sprintf("server delivered %d of %d readings", sink.count(), n))
}
