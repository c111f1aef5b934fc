package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"

	"sensorguard/internal/ingest"
)

// lineTemplate is one reading's NDJSON line as ingest.EncodeLine renders
// it, split around the two fields a replay pass changes (seq and time_s),
// so shipping a pass costs two number formats per line instead of a JSON
// encode — client CPU counts against every reading.
type lineTemplate struct {
	head, mid, tail []byte // mid is nil for a Seq-0 reading (no seq field)
}

func newLineTemplate(r ingest.Reading) (lineTemplate, error) {
	line, err := ingest.EncodeLine(r)
	if err != nil {
		return lineTemplate{}, err
	}
	ti := bytes.Index(line, []byte(`"time_s":`))
	vi := bytes.Index(line, []byte(`,"values":`))
	if ti < 0 || vi < ti {
		return lineTemplate{}, fmt.Errorf("unexpected NDJSON layout %s", line)
	}
	t := lineTemplate{head: line[:ti+9], tail: append(line[vi:], '\n')}
	if si := bytes.Index(line, []byte(`"seq":`)); si >= 0 && r.Seq > 0 {
		ci := si + 6 + bytes.IndexByte(line[si+6:], ',')
		t.head, t.mid = line[:si+6], line[ci:ti+9]
	}
	return t, nil
}

// client is one load-generating connection and everything it observed.
type client struct {
	id    int
	order []entry
	// send ships one encoded batch of n readings.
	send func(body []byte, n int) error

	http *http.Client
	tcp  net.Conn

	enc  ingest.FrameEncoder
	body []byte

	warmed   bool
	passes   int // complete passes shipped
	sent     int // readings shipped, warm-up included
	measured int // readings shipped in the measured phase
	bytes    int64
	failed   int
	stats    ingest.StreamStats
	ack, lag []float64       // ms, measured phase
	closedAt map[int64]int64 // deployment<<32|window → ns since epoch
}

// encode renders batch ents of pass p in the workload's codec.
func (s *session) encode(c *client, ents []entry, p int) ([]byte, error) {
	f := s.feed
	if s.w.codec == codecFrame {
		c.enc.Reset()
		for _, e := range ents {
			c.enc.Add(f.reading(int(e.d), p, int(e.i)))
		}
		return c.enc.Frame()
	}
	b := c.body[:0]
	for _, e := range ents {
		t := s.templates[e.d][e.i]
		r := f.reading(int(e.d), p, int(e.i))
		b = append(b, t.head...)
		if t.mid != nil {
			b = strconv.AppendUint(b, r.Seq, 10)
			b = append(b, t.mid...)
		}
		b = strconv.AppendFloat(b, r.Time.Seconds(), 'f', -1, 64)
		b = append(b, t.tail...)
	}
	c.body = b
	return b, nil
}

// postIngest sends one batch to POST /ingest and folds the response's
// stream counts in.
func (s *session) postIngest(c *client, body []byte, n int) error {
	ct := "application/x-ndjson"
	if s.w.codec == codecFrame {
		ct = ingest.FrameContentType
	}
	resp, err := c.http.Post(s.srv.url+"/ingest", ct, bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST /ingest: %d %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	var st ingest.StreamStats
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("POST /ingest response: %w", err)
	}
	c.stats.Accepted += st.Accepted
	c.stats.Rejected += st.Rejected
	c.stats.Dropped += st.Dropped
	return nil
}

// tcpWindowFrames is how many frames each TCP client keeps in flight. TCP
// ingest sends no acknowledgement, so a frame counts as acknowledged once
// the pool's accepted-readings counter covers it; without this window the
// loop would be closed only by kernel socket buffers, whose autotuned size
// would then set the verdict latency.
const tcpWindowFrames = 8

// writeFrame sends one frame down the TCP connection once the readings in
// flight over all TCP clients leave room for it.
func (s *session) writeFrame(c *client, body []byte, n int) error {
	limit := int64(tcpWindowFrames * s.w.batch * s.w.conns)
	for s.sent.Load()-s.srv.taken()+int64(n) > limit {
		time.Sleep(100 * time.Microsecond)
	}
	_, err := c.tcp.Write(body)
	return err
}

// ship runs one connection: warm-up passes as fast as the server takes
// them, then measured passes — closed loop, or paced to the workload's
// open-loop rate — until the measured phase has lasted its duration, always
// ending on a pass boundary so every deployment ends on the same pass.
func (s *session) ship(c *client) error {
	var interval time.Duration
	if s.w.rate > 0 {
		interval = time.Duration(float64(s.w.batch) / s.w.rate * float64(time.Second))
	}
	k := 0 // measured batches, for the open-loop schedule
	for p := 0; ; p++ {
		measuring := p >= s.w.warm
		if p == s.w.warm {
			c.warmed = true
			s.warmed.Done()
			<-s.start
			if s.abort.Load() {
				return nil
			}
		}
		if measuring && p > s.w.warm && !time.Now().Before(s.deadline) {
			return nil
		}
		for b := 0; b < len(c.order); b += s.w.batch {
			ents := c.order[b:min(b+s.w.batch, len(c.order))]
			body, err := s.encode(c, ents, p)
			if err != nil {
				return err
			}
			var due time.Time
			if measuring && interval > 0 {
				due = s.t0.Add(time.Duration(k) * interval)
				k++
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
			}
			start := time.Now()
			if due.IsZero() {
				due = start
			}
			if measuring {
				at := due.Sub(s.epoch).Nanoseconds()
				for _, e := range ents {
					for _, w := range s.closes[e.d][e.i] {
						c.closedAt[int64(e.d)<<32|int64(int(w)+p*s.wpp[e.d])] = at
					}
				}
			}
			err = c.send(body, len(ents))
			end := time.Now()
			c.sent += len(ents)
			s.sent.Add(int64(len(ents)))
			if err != nil {
				c.failed += len(ents)
				if s.w.tcp {
					return err // the stream is gone
				}
			}
			if measuring {
				c.measured += len(ents)
				c.bytes += int64(len(body))
				c.ack = append(c.ack, ms(end.Sub(due)))
				c.lag = append(c.lag, ms(start.Sub(due)))
			}
		}
		c.passes = p + 1
	}
}

const (
	queryReport = iota
	queryStatus
	queryMetrics
)

// poll runs the query client at the workload's open-loop rate until stop
// closes: GET /report/{dep}, /status/{dep} and /metrics in turn, cycling
// through the deployments. Latency is timed from when each query was due.
func (s *session) poll(c *http.Client, stop <-chan struct{}) (lat [3][]float64, attempted, failed int) {
	interval := time.Duration(float64(time.Second) / s.w.queryRate)
	for j := 0; ; j++ {
		kind, path := j%3, "/metrics"
		dep := s.feed.deps[(j/3)%len(s.feed.deps)]
		switch kind {
		case queryReport:
			path = "/report/" + dep
		case queryStatus:
			path = "/status/" + dep
		}
		if kind == queryMetrics && s.srv.reg == nil {
			continue // metrics registry priced off: no /metrics route
		}
		due := s.t0.Add(time.Duration(j) * interval)
		select {
		case <-stop:
			return
		case <-time.After(time.Until(due)):
		}
		attempted++
		resp, err := c.Get(s.srv.url + path)
		if err == nil {
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if err == nil && resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("GET %s: %d", path, resp.StatusCode)
			}
		}
		if err != nil {
			failed++
			continue
		}
		lat[kind] = append(lat[kind], ms(time.Since(due)))
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
