package fleet

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"sensorguard/internal/chaos"
	"sensorguard/internal/core"
	"sensorguard/internal/ingest"
	"sensorguard/internal/sensor"
)

// A checkpoint is the complete durable state of one shard at journal
// sequence Seq: one header record plus one record per deployment. Unlike a
// journal, a checkpoint is all-or-nothing — if any record fails to decode,
// the whole file is invalid and recovery falls back to the previous
// checkpoint plus a longer journal replay. Files are written to a temporary
// name, fsynced, and renamed into place, so a crash mid-write never shadows
// the previous checkpoint.

// checkpointHeader is the first record of a checkpoint file.
type checkpointHeader struct {
	Version     int    `json:"version"`
	Shard       int    `json:"shard"`
	Shards      int    `json:"shards"`
	Seq         uint64 `json:"seq"`
	WindowNS    int64  `json:"window_ns"`
	Deployments int    `json:"deployments"`
}

// checkpointReading mirrors journalEntry's exact-time encoding for readings
// buffered inside the checkpoint (bootstrap buffer, open windows).
type checkpointReading struct {
	Sensor int       `json:"sensor"`
	TimeNS int64     `json:"time_ns"`
	Values []float64 `json:"values"`
}

func toCheckpointReadings(rs []sensor.Reading) []checkpointReading {
	if len(rs) == 0 {
		return nil
	}
	out := make([]checkpointReading, len(rs))
	for i, r := range rs {
		out[i] = checkpointReading{Sensor: r.Sensor, TimeNS: int64(r.Time), Values: r.Values.Clone()}
	}
	return out
}

func fromCheckpointReadings(rs []checkpointReading) ([]sensor.Reading, error) {
	if len(rs) == 0 {
		return nil, nil
	}
	out := make([]sensor.Reading, len(rs))
	for i, r := range rs {
		if r.TimeNS < 0 || len(r.Values) == 0 {
			return nil, fmt.Errorf("fleet: checkpoint reading %d invalid", i)
		}
		out[i] = sensor.Reading{Sensor: r.Sensor, Time: time.Duration(r.TimeNS), Values: r.Values}
	}
	return out, nil
}

// checkpointWindower is ingest.WindowerState with readings re-encoded
// exactly (the windower state itself already uses integer nanoseconds for
// cursors; only the buffered readings need the explicit form).
type checkpointWindower struct {
	Width    time.Duration               `json:"width"`
	Lateness time.Duration               `json:"lateness"`
	Open     map[int][]checkpointReading `json:"open,omitempty"`
	Started  bool                        `json:"started"`
	NextEmit int                         `json:"next_emit"`
	MaxIndex int                         `json:"max_index"`
	MaxTime  time.Duration               `json:"max_time"`
	Late     int                         `json:"late"`
}

func toCheckpointWindower(st ingest.WindowerState) checkpointWindower {
	out := checkpointWindower{
		Width:    st.Width,
		Lateness: st.Lateness,
		Started:  st.Started,
		NextEmit: st.NextEmit,
		MaxIndex: st.MaxIndex,
		MaxTime:  st.MaxTime,
		Late:     st.Late,
	}
	if len(st.Open) > 0 {
		out.Open = make(map[int][]checkpointReading, len(st.Open))
		for idx, rs := range st.Open {
			out.Open[idx] = toCheckpointReadings(rs)
		}
	}
	return out
}

func (w checkpointWindower) state() (ingest.WindowerState, error) {
	out := ingest.WindowerState{
		Width:    w.Width,
		Lateness: w.Lateness,
		Started:  w.Started,
		NextEmit: w.NextEmit,
		MaxIndex: w.MaxIndex,
		MaxTime:  w.MaxTime,
		Late:     w.Late,
	}
	if len(w.Open) > 0 {
		out.Open = make(map[int][]sensor.Reading, len(w.Open))
		for idx, rs := range w.Open {
			decoded, err := fromCheckpointReadings(rs)
			if err != nil {
				return out, err
			}
			out.Open[idx] = decoded
		}
	}
	return out, nil
}

// deploymentCheckpoint is one deployment's record.
type deploymentCheckpoint struct {
	Name        string              `json:"name"`
	State       string              `json:"state"`
	Started     bool                `json:"started"`
	FirstNS     int64               `json:"first_ns"`
	Late        int                 `json:"late"`
	LastWireSeq uint64              `json:"last_wire_seq,omitempty"`
	Pending     []checkpointReading `json:"pending,omitempty"`
	Windower    *checkpointWindower `json:"windower,omitempty"`
	Detector    *core.Snapshot      `json:"detector,omitempty"`
	Err         string              `json:"err,omitempty"`
}

// checkpointFile is the decoded form of one valid checkpoint.
type checkpointFile struct {
	header      checkpointHeader
	deployments []deploymentCheckpoint
}

func checkpointPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("checkpoint-%016x.ckpt", seq))
}

// encodeCheckpoint frames the header and deployment records.
func encodeCheckpoint(hdr checkpointHeader, deps []deploymentCheckpoint) ([]byte, error) {
	hdr.Deployments = len(deps)
	buf := []byte(checkpointMagic)
	payload, err := json.Marshal(hdr)
	if err != nil {
		return nil, err
	}
	buf = appendRecord(buf, payload)
	for _, d := range deps {
		payload, err := json.Marshal(d)
		if err != nil {
			return nil, err
		}
		buf = appendRecord(buf, payload)
	}
	return buf, nil
}

// writeCheckpoint atomically persists a checkpoint: write to a temporary
// file, fsync it, rename into place, fsync the directory. Returns the byte
// size written.
func writeCheckpoint(fsys chaos.FS, dir string, hdr checkpointHeader, deps []deploymentCheckpoint) (int, error) {
	buf, err := encodeCheckpoint(hdr, deps)
	if err != nil {
		return 0, err
	}
	final := checkpointPath(dir, hdr.Seq)
	tmp := final + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return 0, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return 0, err
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return 0, err
	}
	if err := fsys.Rename(tmp, final); err != nil {
		fsys.Remove(tmp)
		return 0, err
	}
	_ = fsys.SyncDir(dir)
	return len(buf), nil
}

// decodeCheckpoint validates a checkpoint file completely. Any torn frame,
// header mismatch, or record-count shortfall invalidates the whole file.
func decodeCheckpoint(data []byte, wantShard, wantShards int) (*checkpointFile, error) {
	records, tail := readAllRecords(data, checkpointMagic)
	if tail != nil {
		return nil, fmt.Errorf("fleet: checkpoint damaged: %w", tail)
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("fleet: checkpoint has no header")
	}
	var hdr checkpointHeader
	if err := json.Unmarshal(records[0], &hdr); err != nil {
		return nil, fmt.Errorf("fleet: checkpoint header: %w", err)
	}
	if hdr.Version != 1 {
		return nil, fmt.Errorf("fleet: checkpoint version %d, want 1", hdr.Version)
	}
	if hdr.Shard != wantShard || hdr.Shards != wantShards {
		return nil, fmt.Errorf("fleet: checkpoint belongs to shard %d/%d, want %d/%d",
			hdr.Shard, hdr.Shards, wantShard, wantShards)
	}
	if hdr.Deployments != len(records)-1 {
		return nil, fmt.Errorf("fleet: checkpoint lists %d deployments, file holds %d",
			hdr.Deployments, len(records)-1)
	}
	out := &checkpointFile{header: hdr}
	seen := make(map[string]bool, hdr.Deployments)
	for i, rec := range records[1:] {
		var d deploymentCheckpoint
		if err := json.Unmarshal(rec, &d); err != nil {
			return nil, fmt.Errorf("fleet: checkpoint deployment record %d: %w", i, err)
		}
		if d.Name == "" || seen[d.Name] {
			return nil, fmt.Errorf("fleet: checkpoint deployment record %d has missing or duplicate name", i)
		}
		seen[d.Name] = true
		out.deployments = append(out.deployments, d)
	}
	return out, nil
}

// listCheckpoints returns the shard directory's checkpoints in ascending seq
// order (see listSeqFiles).
func listCheckpoints(fsys chaos.FS, dir string) ([]journalSegment, error) {
	return listSeqFiles(fsys, dir, "checkpoint-", ".ckpt")
}
