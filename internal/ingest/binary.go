package ingest

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"sensorguard/internal/obs"
)

// The binary ingest path decodes frames in parallel: one reader goroutine
// slices the stream into frames and hands them to a process-wide bounded
// worker pool, while the stream's own goroutine submits each frame's
// readings strictly in arrival order. Ordering is preserved by a bounded
// channel of per-frame result channels — frames decode out of order across
// cores, but their readings reach the consumer (and therefore each
// deployment's shard queue) in the order they arrived on the socket.

// BatchConsumer is a Consumer that can take a whole decoded batch in one
// call. Both codecs prefer it: the binary path submits each frame, the
// NDJSON path runs of up to lineBatch lines. accepted+dropped covers the
// prefix actually processed; a non-nil error is terminal, as with Submit.
// SubmitBatch must not retain rs: the caller reuses it.
type BatchConsumer interface {
	Consumer
	SubmitBatch(rs []Reading) (accepted, dropped int, err error)
}

var (
	decodeOnce     sync.Once
	decodeJobQueue chan decodeJob
)

// decodePool returns the shared job queue, starting one worker per
// GOMAXPROCS on first use. The queue's capacity is the worker count.
func decodePool() chan decodeJob {
	decodeOnce.Do(func() {
		n := runtime.GOMAXPROCS(0)
		decodeJobQueue = make(chan decodeJob, n)
		for range n {
			go decodeWorker(decodeJobQueue)
		}
	})
	return decodeJobQueue
}

// frameBufPool recycles raw frame buffers between the stream reader and the
// decode workers, so steady-state binary ingest allocates no frame-sized
// byte slices. (Decoded readings are NOT pooled: the windower retains them.)
var frameBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 64*1024); return &b }}

type decodeJob struct {
	buf     *[]byte // pooled; the worker returns it after decoding
	frameNo int     // 1-based ordinal within its stream, for error reports
	out     chan<- decodeResult
}

type decodeResult struct {
	readings []Reading
	rejected int
	busy     time.Duration
	err      error // *FrameError on a structurally bad frame
}

func decodeWorker(jobs <-chan decodeJob) {
	for j := range jobs {
		t0 := time.Now()
		readings, rejected, err := DecodeFrame(*j.buf)
		busy := time.Since(t0)
		frameBufPool.Put(j.buf)
		var fe *FrameError
		if errors.As(err, &fe) {
			// DecodeFrame sees one frame at a time; report the ordinal
			// within the stream instead.
			err = &FrameError{Frame: j.frameNo, Err: fe.Err}
		}
		j.out <- decodeResult{readings: readings, rejected: rejected, busy: busy, err: err}
	}
}

// readFrames is ReadStream's binary codec: it decodes a stream of frames
// and submits every frame's readings to c, in arrival order, until EOF.
// Frames decode in parallel on the shared worker pool. Any framing fault
// (bad magic, bad length, CRC mismatch, truncation) is fatal to the stream
// and reported as a *FrameError — unlike NDJSON there is no line boundary to
// resync on. Semantically invalid readings inside a well-formed frame are
// counted as rejected and skipped, like undecodable NDJSON lines.
func readFrames(br *bufio.Reader, c Consumer, o StreamOptions) (StreamStats, error) {
	span := startDecodeSpan(o)
	span.SetAttr("codec", "binary")
	ctx := span.Context()

	jobs := decodePool()
	// The in-order spine: the reader pushes each frame's result channel here
	// before dispatching its decode, the submitter drains it sequentially.
	// Its capacity bounds decoded-but-unsubmitted frames end to end.
	results := make(chan chan decodeResult, cap(jobs)+2)
	done := make(chan struct{})
	var stopOnce sync.Once
	stop := func() { stopOnce.Do(func() { close(done) }) }
	defer stop()
	readErr := make(chan error, 1)

	go func() {
		defer close(results)
		frameNo := 0
		var header [frameHeaderLen]byte
		for {
			if _, err := io.ReadFull(br, header[:]); err != nil {
				if errors.Is(err, io.EOF) {
					readErr <- nil // clean end at a frame boundary
				} else if errors.Is(err, io.ErrUnexpectedEOF) {
					readErr <- &FrameError{Frame: frameNo + 1, Err: errors.New("truncated frame header")}
				} else {
					readErr <- err
				}
				return
			}
			frameNo++
			if header[0] != FrameMagic {
				readErr <- &FrameError{Frame: frameNo, Err: fmt.Errorf("bad magic 0x%02X", header[0])}
				return
			}
			if header[1] != FrameVersion {
				readErr <- &FrameError{Frame: frameNo, Err: fmt.Errorf("unsupported frame version %d", header[1])}
				return
			}
			n := int(binary.LittleEndian.Uint32(header[2:6]))
			if n > MaxFramePayload {
				readErr <- &FrameError{Frame: frameNo, Err: fmt.Errorf("payload length %d exceeds %d", n, MaxFramePayload)}
				return
			}
			bp := frameBufPool.Get().(*[]byte)
			total := frameHeaderLen + n + frameTrailerLen
			if cap(*bp) < total {
				*bp = make([]byte, total)
			}
			buf := (*bp)[:total]
			*bp = buf
			copy(buf, header[:])
			if _, err := io.ReadFull(br, buf[frameHeaderLen:]); err != nil {
				frameBufPool.Put(bp)
				readErr <- &FrameError{Frame: frameNo, Err: fmt.Errorf("truncated frame body: %w", err)}
				return
			}
			out := make(chan decodeResult, 1)
			select {
			case results <- out: // in order, before the decode can complete
			case <-done:
				frameBufPool.Put(bp)
				readErr <- nil
				return
			}
			select {
			case jobs <- decodeJob{buf: bp, frameNo: frameNo, out: out}:
			case <-done:
				out <- decodeResult{} // unblock the (exiting) submitter
				frameBufPool.Put(bp)
				readErr <- nil
				return
			}
		}
	}()

	var st StreamStats
	fail := func(err error) (StreamStats, error) {
		// Stop the reader, then drain so no result channel is left holding a
		// reference; workers never block (each out has capacity 1).
		stop()
		for range results {
		}
		<-readErr
		finishDecodeSpan(span, st)
		return st, err
	}
	for out := range results {
		res := <-out
		if res.err != nil {
			return fail(res.err)
		}
		o.Decode.Observe(res.busy, uint64(len(res.readings)+res.rejected))
		st.Rejected += res.rejected
		st.RejectedDecode += res.rejected
		if len(res.readings) == 0 {
			continue
		}
		if ctx.Valid() {
			res.readings[0].Trace = ctx
		}
		accepted, dropped, err := submitBatch(c, res.readings)
		st.Accepted += accepted
		st.Dropped += dropped
		if err != nil {
			return fail(err)
		}
		if accepted > 0 {
			ctx = obs.SpanContext{} // one stamped reading per sampled stream
		}
	}
	err := <-readErr
	finishDecodeSpan(span, st)
	if err != nil {
		return st, err
	}
	return st, nil
}
