package ingest

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"sensorguard/internal/obs"
)

// maxLine bounds one NDJSON line (a reading with a few attributes fits in
// well under 1 KiB; 1 MiB leaves room for wide attribute vectors).
const maxLine = 1 << 20

// StreamStats counts the outcome of one ingest stream (either codec).
type StreamStats struct {
	// Accepted readings were decoded and enqueued.
	Accepted int `json:"accepted"`
	// Rejected is the total of all rejection causes below; it stays the
	// stable field existing shippers read.
	Rejected int `json:"rejected"`
	// RejectedDecode counts lines (or binary-frame readings) that failed to
	// decode or validate.
	RejectedDecode int `json:"rejected_decode"`
	// RejectedOversize counts NDJSON lines over the 1 MiB line bound; the
	// reader resyncs at the next newline and keeps going.
	RejectedOversize int `json:"rejected_oversize"`
	// Dropped readings were shed by the consumer's overflow policy.
	Dropped int `json:"dropped"`
}

// PayloadError reports a client-payload fault in an NDJSON stream — a body
// read error or malformed transport framing. The HTTP handler maps it (and
// *FrameError, its binary-codec sibling) to 400; collector-side submit
// failures stay 503. Line is the 1-based line at which the stream died.
type PayloadError struct {
	Line int
	Err  error
}

func (e *PayloadError) Error() string {
	return fmt.Sprintf("ingest: line %d: %v", e.Line, e.Err)
}

func (e *PayloadError) Unwrap() error { return e.Err }

// StreamOptions carries the optional instrumentation of one ingest stream.
type StreamOptions struct {
	// Tracer records an "ingest.decode" span over the whole stream,
	// continuing the producer's trace when Parent is a recording context (a
	// stamped traceparent header) and starting a sampled root when Parent is
	// zero. The first accepted reading is stamped with the span's context, so
	// exactly one reading per sampled stream threads the trace through the
	// queue, the windower, and the detector. A nil Tracer (or an explicitly
	// unsampled Parent) records nothing.
	Tracer *obs.Tracer
	Parent obs.SpanContext
	// Decode, when non-nil, accumulates decode time and decoded readings
	// into the ingest_decode stage clock for bottleneck attribution, one
	// observation per submitted batch or frame.
	Decode *obs.StageClock
}

// ReadStream reads readings in either wire codec from r and submits them to
// c until EOF. The first byte selects the codec: FrameMagic (0xBF, never a
// valid start of JSON or UTF-8 text) means binary frames, anything else —
// including an empty stream — is NDJSON, the default. It serves transports
// with no content-type channel: TCP sockets and file or stdin replay.
//
// Undecodable NDJSON lines are counted, not fatal (one bad producer must not
// kill a shared socket); a structurally broken frame is fatal and reported
// as a *FrameError. Consumer errors other than ErrDropped are fatal.
func ReadStream(r io.Reader, c Consumer, o StreamOptions) (StreamStats, error) {
	br := bufferedReader(r)
	if first, err := br.Peek(1); err == nil && first[0] == FrameMagic {
		return readFrames(br, c, o)
	}
	return readLines(br, c, o)
}

// bufferedReader reuses r when it is already buffered.
func bufferedReader(r io.Reader) *bufio.Reader {
	if br, ok := r.(*bufio.Reader); ok {
		return br
	}
	return bufio.NewReaderSize(r, 64*1024)
}

// startDecodeSpan opens the stream's "ingest.decode" span under o's tracer
// (nil when nothing is recorded).
func startDecodeSpan(o StreamOptions) *obs.Span {
	switch {
	case o.Parent.Recording():
		return o.Tracer.StartSpan("ingest.decode", o.Parent)
	case !o.Parent.Valid():
		return o.Tracer.Root("ingest.decode")
	}
	return nil
}

// lineBatch is how many decoded NDJSON readings readLines hands its consumer
// at once; a batch also goes as soon as the input has nothing more buffered,
// so a producer that trickles lines is never held back waiting for it.
const lineBatch = 512

// batchPool recycles readLines' reading batches: consumers copy what they
// keep (SubmitBatch must not retain its slice), so a batch is free again
// once handed off.
var batchPool = sync.Pool{New: func() any { b := make([]Reading, 0, lineBatch); return &b }}

// lineReader yields newline-delimited lines of at most maxLine bytes. A
// longer line is discarded up to its terminating newline and reported as
// oversize — the stream keeps going, so one bad producer line cannot kill a
// shared socket or discard the rest of a batch (bufio.Scanner, which this
// replaces, aborted the whole stream at the first oversized line).
type lineReader struct {
	br  *bufio.Reader
	buf []byte
	eof bool
}

// next returns the next line with its trailing newline (and optional
// carriage return) stripped. oversize reports a discarded too-long line
// (line is nil). err is io.EOF only when the stream is exhausted; a final
// line without a trailing newline is still returned with err == nil.
func (lr *lineReader) next() (line []byte, oversize bool, err error) {
	if lr.eof {
		return nil, false, io.EOF
	}
	lr.buf = lr.buf[:0]
	long := false
	for {
		chunk, rerr := lr.br.ReadSlice('\n')
		if !long {
			if len(lr.buf)+len(chunk) > maxLine+1 { // +1: the delimiter itself
				long = true
				lr.buf = lr.buf[:0]
			} else {
				lr.buf = append(lr.buf, chunk...)
			}
		}
		switch {
		case errors.Is(rerr, bufio.ErrBufferFull):
			continue // keep accumulating (or discarding) to the newline
		case rerr == nil:
			if long {
				return nil, true, nil
			}
			return trimEOL(lr.buf), false, nil
		case errors.Is(rerr, io.EOF):
			lr.eof = true
			if long {
				return nil, true, nil
			}
			if len(lr.buf) == 0 {
				return nil, false, io.EOF
			}
			return trimEOL(lr.buf), false, nil
		default:
			return nil, false, rerr
		}
	}
}

func trimEOL(b []byte) []byte {
	if n := len(b); n > 0 && b[n-1] == '\n' {
		b = b[:n-1]
	}
	if n := len(b); n > 0 && b[n-1] == '\r' {
		b = b[:n-1]
	}
	return b
}

// readLines is ReadStream's NDJSON codec. One lineDecoder serves the whole
// stream, so its deployment names are interned and its values vectors are
// carved from shared slabs. Decoded readings reach c in batches of up to
// lineBatch (see submitBatch), and each batch's decode time, from its first
// line to its hand-off, feeds the decode stage clock in one observation.
func readLines(br *bufio.Reader, c Consumer, o StreamOptions) (StreamStats, error) {
	span := startDecodeSpan(o)
	ctx := span.Context()
	var st StreamStats
	bp := batchPool.Get().(*[]Reading)
	batch := (*bp)[:0]
	defer func() {
		*bp = batch[:0]
		batchPool.Put(bp)
	}()
	var start time.Time // first line of the open batch (decode clock on)
	var lines uint64    // lines decoded into the open batch, valid or not
	flush := func() error {
		if lines > 0 {
			o.Decode.Observe(time.Since(start), lines)
			lines = 0
		}
		if len(batch) == 0 {
			return nil
		}
		if ctx.Valid() {
			batch[0].Trace = ctx
		}
		accepted, dropped, err := submitBatch(c, batch)
		st.Accepted += accepted
		st.Dropped += dropped
		if accepted > 0 {
			ctx = obs.SpanContext{} // one stamped reading per sampled stream
		}
		clear(batch)
		batch = batch[:0]
		return err
	}
	lr := lineReader{br: br}
	dec := newStreamDecoder()
	lineNo := 0
	for {
		line, oversize, rerr := lr.next()
		if rerr != nil {
			err := flush()
			if err == nil && !errors.Is(rerr, io.EOF) {
				err = &PayloadError{Line: lineNo + 1, Err: rerr}
			}
			finishDecodeSpan(span, st)
			return st, err
		}
		lineNo++
		switch {
		case oversize:
			st.Rejected++
			st.RejectedOversize++
		case len(line) > 0:
			if o.Decode != nil {
				if lines == 0 {
					start = time.Now()
				}
				lines++
			}
			if rd, err := dec.decode(line); err != nil {
				st.Rejected++
				st.RejectedDecode++
			} else {
				batch = append(batch, rd)
			}
		}
		if len(batch) >= lineBatch || br.Buffered() == 0 {
			if err := flush(); err != nil {
				finishDecodeSpan(span, st)
				return st, err
			}
		}
	}
}

// submitBatch hands rs to c: in one SubmitBatch call when c is a
// BatchConsumer, otherwise reading by reading with the same accounting. A
// trace stamp on a reading c drops moves to the next reading, so it still
// lands on an accepted one when any is.
func submitBatch(c Consumer, rs []Reading) (accepted, dropped int, err error) {
	if bc, ok := c.(BatchConsumer); ok {
		return bc.SubmitBatch(rs)
	}
	for i := range rs {
		switch err := c.Submit(rs[i]); {
		case err == nil:
			accepted++
		case errors.Is(err, ErrDropped):
			dropped++
			if i+1 < len(rs) && !rs[i+1].Trace.Valid() {
				rs[i+1].Trace = rs[i].Trace
			}
		default:
			return accepted, dropped, err
		}
	}
	return accepted, dropped, nil
}

func finishDecodeSpan(span *obs.Span, st StreamStats) {
	span.SetInt("accepted", int64(st.Accepted))
	span.SetInt("rejected", int64(st.Rejected))
	span.SetInt("rejected_decode", int64(st.RejectedDecode))
	span.SetInt("rejected_oversize", int64(st.RejectedOversize))
	span.SetInt("dropped", int64(st.Dropped))
	span.End()
}

// IngestHandlerStaged returns the HTTP handler for POST /ingest: the request
// body is a stream of readings, the response a JSON StreamStats. A
// Traceparent request header joins the stream's "ingest.decode" span to the
// producer's trace (without one, tr's root sampling applies; tr may be nil),
// and each body's decode time feeds the decode stage clock (may be nil).
//
// Codec negotiation: a FrameContentType request selects the binary frame
// codec outright; any other content type is sniffed by the first body byte
// (the frame magic can never begin NDJSON), with NDJSON the default.
//
// Error contract: client-payload faults — a body read error, transport
// framing gone wrong, a corrupt or truncated binary frame — are 400 with a
// structured JSON body naming the failing line or frame, so a shipper can
// drop the batch instead of retrying it forever. 503 is reserved for
// collector-side submit failures (backpressure, shutdown), which ARE worth
// retrying.
func IngestHandlerStaged(c Consumer, tr *obs.Tracer, decode *obs.StageClock) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var parent obs.SpanContext
		if tr != nil {
			if ctx, ok := obs.ParseTraceparent(r.Header.Get(obs.TraceparentHeader)); ok {
				parent = ctx
			}
		}
		o := StreamOptions{Tracer: tr, Parent: parent, Decode: decode}
		var st StreamStats
		var err error
		if ct := r.Header.Get("Content-Type"); strings.HasPrefix(ct, FrameContentType) {
			st, err = readFrames(bufferedReader(r.Body), c, o)
		} else {
			st, err = ReadStream(r.Body, c, o)
		}
		if err != nil {
			writeIngestError(w, st, err)
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		_ = enc.Encode(st)
	}
}

// ingestErrorBody is the structured JSON error response for payload faults.
type ingestErrorBody struct {
	Error string `json:"error"`
	// Line is the 1-based NDJSON line the stream failed at (0 for binary).
	Line int `json:"line,omitempty"`
	// Frame is the 1-based binary frame ordinal (0 for NDJSON).
	Frame int `json:"frame,omitempty"`
	// The partial stream outcome before the failure.
	Stats StreamStats `json:"stats"`
}

// writeIngestError maps a stream failure onto the 400-vs-503 contract.
func writeIngestError(w http.ResponseWriter, st StreamStats, err error) {
	var pe *PayloadError
	var fe *FrameError
	body := ingestErrorBody{Error: err.Error(), Stats: st}
	switch {
	case errors.As(err, &pe):
		body.Line = pe.Line
	case errors.As(err, &fe):
		body.Frame = fe.Frame
	default:
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(http.StatusBadRequest)
	_ = json.NewEncoder(w).Encode(body)
}

// DefaultTCPIdleTimeout is how long a TCP ingest connection may sit without
// delivering a byte before it is severed. Gateways batch at window scale, so
// minutes of silence are normal; hours mean a half-open peer.
const DefaultTCPIdleTimeout = 5 * time.Minute

// TCPServer accepts readings in either wire codec on a TCP listener — the
// mote-gateway-facing ingestion path, one stream per connection, the codec
// sniffed per connection as in ReadStream.
type TCPServer struct {
	ln   net.Listener
	c    Consumer
	idle time.Duration
	opts StreamOptions
	wg   sync.WaitGroup

	mu    sync.Mutex
	conns map[net.Conn]struct{}
}

// ServeTCPStaged starts accepting connections on addr (e.g. ":9000",
// "127.0.0.1:0") in the background, feeding decoded readings to c.
//
// The read deadline resets on every read, so a live producer is never cut
// off mid-stream while a connection silent for longer than idle (a stalled
// or half-open client) cannot pin its goroutine, and the window state behind
// it, forever; idle <= 0 disables the deadline. Each connection's stream is
// a root-sampled "ingest.decode" span under tr (there is no header channel
// on a raw socket, so TCP traces always root at the collector), and its
// decode time feeds the decode stage clock. tr and decode may be nil.
func ServeTCPStaged(addr string, c Consumer, idle time.Duration, tr *obs.Tracer, decode *obs.StageClock) (*TCPServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("ingest: listen %s: %w", addr, err)
	}
	return serveTCP(ln, c, idle, StreamOptions{Tracer: tr, Decode: decode}), nil
}

// serveTCP runs the ingest accept loop on ln in the background. Tests reach
// it directly to serve through a fault-injecting listener.
func serveTCP(ln net.Listener, c Consumer, idle time.Duration, o StreamOptions) *TCPServer {
	s := &TCPServer{ln: ln, c: c, idle: idle, opts: o, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.accept()
	return s
}

// idleConn renews the connection's read deadline before every read, turning
// the absolute deadline into an idle timeout.
type idleConn struct {
	conn net.Conn
	idle time.Duration
}

func (c idleConn) Read(p []byte) (int, error) {
	if err := c.conn.SetReadDeadline(time.Now().Add(c.idle)); err != nil {
		return 0, err
	}
	return c.conn.Read(p)
}

// acceptBackoffMax caps the accept-retry backoff. Accept errors short of a
// closed listener (EMFILE under descriptor exhaustion, ECONNABORTED from a
// peer resetting mid-handshake) are transient conditions: exiting on them
// would permanently kill ingestion over a blip, so the loop retries with a
// capped exponential backoff instead, resetting after any successful accept.
const acceptBackoffMax = time.Second

func (s *TCPServer) accept() {
	defer s.wg.Done()
	backoff := time.Duration(0)
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return // listener closed: the only clean exit
			}
			if backoff == 0 {
				backoff = 5 * time.Millisecond
			} else {
				backoff = min(backoff*2, acceptBackoffMax)
			}
			time.Sleep(backoff)
			continue
		}
		backoff = 0
		s.mu.Lock()
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				conn.Close()
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
			}()
			var r io.Reader = conn
			if s.idle > 0 {
				r = idleConn{conn: conn, idle: s.idle}
			}
			// Both codecs share the socket: the first byte decides.
			_, _ = ReadStream(r, s.c, s.opts)
		}()
	}
}

// Addr returns the bound listen address (useful with ":0").
func (s *TCPServer) Addr() string { return s.ln.Addr().String() }

// Close stops accepting connections, severs any still open (an idle
// producer must not stall shutdown), and waits for in-flight streams.
func (s *TCPServer) Close() error {
	err := s.ln.Close()
	s.mu.Lock()
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}
