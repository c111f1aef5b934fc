package fleet

import (
	"time"

	"sensorguard/internal/obs"
)

// The pipeline stages whose busy time the pool attributes. Queue wait is
// tracked but excluded from bottleneck attribution: it is time spent
// *waiting* on whichever stage is actually saturated, not work.
const (
	StageDecode     = "ingest_decode"
	StageJournal    = "journal_append"
	StageQueueWait  = "queue_wait"
	StageAdmit      = "window_admit"
	StageStep       = "detector_step"
	StageCheckpoint = "checkpoint"
)

// admitSampleShift makes window-admit timing 1-in-8 sampled: the clock reads
// would otherwise dominate the per-reading admit cost. Sampled observations
// pre-scale by the same factor so the stage totals stay unbiased.
const admitSampleShift = 3

// initStages registers the stage clocks. Called from New when metrics are on.
func (p *Pool) initStages(reg *obs.Registry) {
	p.stages = obs.NewStageSet(reg,
		StageDecode, StageJournal, StageQueueWait, StageAdmit, StageStep, StageCheckpoint)
	p.clkDecode = p.stages.Clock(StageDecode)
	p.clkJournal = p.stages.Clock(StageJournal)
	p.clkQueueWait = p.stages.Clock(StageQueueWait)
	p.clkAdmit = p.stages.Clock(StageAdmit)
	p.clkStep = p.stages.Clock(StageStep)
	p.clkCkpt = p.stages.Clock(StageCheckpoint)
}

// DecodeClock returns the ingest-decode stage clock for listeners to feed
// (nil, and safe to pass, when metrics are off).
func (p *Pool) DecodeClock() *obs.StageClock { return p.clkDecode }

// Bottleneck is the pool's live bottleneck attribution: which pipeline stage
// accumulated the most busy time over the last SLO tick. Utilization 1.0 is
// one core's worth; parallel stages (decode across connections, steps across
// shards) can exceed it.
type Bottleneck struct {
	// Stage is the busiest work stage, or "idle" when nothing measured busy.
	Stage       string  `json:"stage"`
	Utilization float64 `json:"utilization"`
	// WindowSeconds is the wall-clock span the attribution covers.
	WindowSeconds float64 `json:"window_seconds"`
	// Stages is every stage's utilization over the window (queue_wait
	// included for visibility), sorted by descending utilization.
	Stages []obs.StageUtilization `json:"stages"`
}

// Bottleneck returns the newest attribution (nil before the first SLO tick or
// with metrics off).
func (p *Pool) Bottleneck() *Bottleneck {
	return p.bottleneck.Load()
}

// updateBottleneck recomputes stage utilization over the interval since the
// previous sweep and publishes the fleet_stage_utilization and
// fleet_bottleneck_stage gauges. Runs on the SLO ticker goroutine only.
func (p *Pool) updateBottleneck(now time.Time) {
	if p.stages == nil {
		return
	}
	cur := p.stages.Snapshot(now)
	if !p.stageSnapOK {
		p.stageSnap, p.stageSnapOK = cur, true
		return
	}
	utils := p.stages.Utilization(p.stageSnap, cur)
	wall := cur.At.Sub(p.stageSnap.At).Seconds()
	p.stageSnap = cur
	if utils == nil {
		return
	}
	b := &Bottleneck{Stage: "idle", WindowSeconds: wall, Stages: utils}
	for _, u := range utils {
		if u.Stage == StageQueueWait {
			continue
		}
		if u.Utilization > b.Utilization {
			b.Stage, b.Utilization = u.Stage, u.Utilization
		}
	}
	if b.Utilization <= 0 {
		b.Stage, b.Utilization = "idle", 0
	}
	p.bottleneck.Store(b)

	reg := p.cfg.Metrics
	for _, u := range utils {
		reg.Gauge(`fleet_stage_utilization{stage="`+u.Stage+`"}`,
			"stage busy time as a fraction of wall time over the last health sweep").Set(u.Utilization)
		v := 0.0
		if u.Stage == b.Stage {
			v = 1
		}
		reg.Gauge(`fleet_bottleneck_stage{stage="`+u.Stage+`"}`,
			"1 on the stage currently attributed as the pipeline bottleneck").Set(v)
	}
}
