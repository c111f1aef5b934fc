package fleet

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"sensorguard/internal/chaos"
	"sensorguard/internal/ingest"
	"sensorguard/internal/sensor"
	"sensorguard/internal/vecmat"
)

// The write-ahead journal records every reading a shard accepts, before it
// is enqueued for processing. Segments are named journal-%016x.wal, where
// the hex field is the segment's base sequence. A new segment opens at each
// checkpoint with base = the highest sequence journaled so far, so segments
// partition the sequence space: the segment with base b holds exactly the
// records in (b, next segment's base]. Replay after loading a checkpoint at
// seq S therefore starts at the segment with the largest base ≤ S, skips
// records with seq ≤ S, and continues through every later segment — records
// accepted while the checkpoint was being written (seq > S, journaled into
// the pre-rotation segment) are exactly what that rule picks up.
//
// Appends go straight to the file descriptor (no userspace buffering), so a
// killed process loses nothing it acknowledged; only checkpoints fsync.

// journalHeader is the first record of a segment.
type journalHeader struct {
	Version int    `json:"version"`
	Shard   int    `json:"shard"`
	Shards  int    `json:"shards"`
	Base    uint64 `json:"base"`
}

// journalEntry is one accepted reading. Time travels as integer nanoseconds
// so replay reconstructs the reading bit-for-bit (float-seconds would not
// round-trip).
type journalEntry struct {
	Seq        uint64    `json:"seq"`
	Deployment string    `json:"deployment"`
	WireSeq    uint64    `json:"wire_seq,omitempty"`
	Sensor     int       `json:"sensor"`
	TimeNS     int64     `json:"time_ns"`
	Values     []float64 `json:"values"`
}

func (e journalEntry) reading() ingest.Reading {
	return ingest.Reading{
		Deployment: e.Deployment,
		Seq:        e.WireSeq,
		Reading: sensor.Reading{
			Sensor: e.Sensor,
			Time:   time.Duration(e.TimeNS),
			Values: vecmat.Vector(e.Values),
		},
	}
}

// journalWriter appends framed entries to one segment file. All I/O goes
// through the chaos.FS seam so the fault harness can fail or tear it.
type journalWriter struct {
	f    chaos.File
	path string
}

func journalPath(dir string, base uint64) string {
	return filepath.Join(dir, fmt.Sprintf("journal-%016x.wal", base))
}

// openJournal creates a fresh segment with the given base sequence.
func openJournal(fsys chaos.FS, dir string, shard, shards int, base uint64) (*journalWriter, error) {
	path := journalPath(dir, base)
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	hdr, err := json.Marshal(journalHeader{Version: 1, Shard: shard, Shards: shards, Base: base})
	if err != nil {
		f.Close()
		return nil, err
	}
	buf := append([]byte(journalMagic), appendRecord(nil, hdr)...)
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return nil, err
	}
	return &journalWriter{f: f, path: path}, nil
}

// write flushes a buffer of pre-framed records in one syscall — the group
// commit path. The buffer must hold whole frames in sequence order; the
// single Write call keeps them contiguous, so a concurrent kill can only
// tear the final record, never interleave two.
func (w *journalWriter) write(buf []byte) error {
	if len(buf) == 0 {
		return nil
	}
	_, err := w.f.Write(buf)
	return err
}

func (w *journalWriter) close() error {
	if w == nil || w.f == nil {
		return nil
	}
	return w.f.Close()
}

// journalSegment is one on-disk segment, identified by its base sequence.
type journalSegment struct {
	path string
	base uint64
}

// listJournals returns the shard directory's segments in ascending base
// order (see listSeqFiles).
func listJournals(fsys chaos.FS, dir string) ([]journalSegment, error) {
	return listSeqFiles(fsys, dir, "journal-", ".wal")
}

// listSeqFiles returns dir's files named prefix + hex sequence + suffix in
// ascending sequence order. Files whose names do not parse (leftover .tmp
// files included) are ignored.
func listSeqFiles(fsys chaos.FS, dir, prefix, suffix string) ([]journalSegment, error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var out []journalSegment
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
			continue
		}
		seq, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix), 16, 64)
		if err != nil {
			continue
		}
		out = append(out, journalSegment{path: filepath.Join(dir, name), base: seq})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].base < out[j].base })
	return out, nil
}

// readJournal decodes a segment, tolerating a torn or corrupt tail: every
// entry before the first bad frame is returned. Entries out of sequence
// order (only possible through corruption the CRC missed, or hand-editing)
// end the segment early rather than poisoning replay.
func readJournal(fsys chaos.FS, path string, wantShard, wantShards int) ([]journalEntry, error) {
	data, err := fsys.ReadFile(path)
	if err != nil {
		return nil, err
	}
	records, _ := readAllRecords(data, journalMagic) // tail damage is expected after a crash
	if len(records) == 0 {
		return nil, nil
	}
	var hdr journalHeader
	if err := json.Unmarshal(records[0], &hdr); err != nil {
		return nil, nil // header torn: no usable entries
	}
	if hdr.Version != 1 {
		return nil, fmt.Errorf("fleet: journal %s version %d, want 1", path, hdr.Version)
	}
	if hdr.Shard != wantShard || hdr.Shards != wantShards {
		return nil, fmt.Errorf("fleet: journal %s belongs to shard %d/%d, want %d/%d",
			path, hdr.Shard, hdr.Shards, wantShard, wantShards)
	}
	var out []journalEntry
	last := hdr.Base
	for _, rec := range records[1:] {
		var e journalEntry
		if err := json.Unmarshal(rec, &e); err != nil {
			break
		}
		if e.Seq <= last || len(e.Values) == 0 || e.TimeNS < 0 {
			break
		}
		last = e.Seq
		out = append(out, e)
	}
	return out, nil
}
