package campaign

import (
	"encoding/json"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Live campaign telemetry (ISSUE 10). A fault-injection campaign runs
// thousands of scenarios for minutes; without telemetry the only signal
// is the final summary. Progress publishes the campaign's live state
// two ways from the same atomics: the obs gauge set (scraped on
// /metrics and /metrics/prom as rabit_campaign_* series) and an NDJSON
// stream (mounted on /campaign via obs.RegisterHTTPHandler) that emits
// one snapshot per interval until the campaign completes — `curl -N
// localhost:6060/campaign` is a live progress bar.

// Progress tracks a running campaign. Build with NewProgress, hand it
// to Run via Options.Progress. All methods are nil-safe, so the runner
// updates it unconditionally.
type Progress struct {
	total   atomic.Int64
	done    atomic.Int64
	detect  atomic.Int64
	missed  atomic.Int64
	falseA  atomic.Int64
	running atomic.Bool
	startNS atomic.Int64
	wallNS  atomic.Int64 // latched at finish

	// workers is the current run's per-worker state. begin publishes a
	// fresh set whole, so a concurrent Snapshot (the /campaign stream
	// polls on a ticker) sees either the previous run's set or the new
	// one, never a half-replaced pair.
	workers atomic.Pointer[workerSet]

	gTotal, gDone, gDetected, gMissed, gFalse *obs.Gauge
	gRate, gETA                               *obs.Gauge
	famWorker                                 *obs.Family
}

// workerSet is one run's per-worker scenario counts and their gauges.
type workerSet struct {
	done   []atomic.Int64
	gauges []*obs.Gauge
}

// NewProgress builds a tracker publishing into reg's campaign gauges
// (nil reg keeps the tracker NDJSON-only).
func NewProgress(reg *obs.Registry) *Progress {
	return &Progress{
		gTotal:    reg.Gauge(obs.GaugeCampaignTotal),
		gDone:     reg.Gauge(obs.GaugeCampaignDone),
		gDetected: reg.Gauge(obs.GaugeCampaignDetected),
		gMissed:   reg.Gauge(obs.GaugeCampaignMissed),
		gFalse:    reg.Gauge(obs.GaugeCampaignFalseAlarms),
		gRate:     reg.Gauge(obs.GaugeCampaignScenPerSecMilli),
		gETA:      reg.Gauge(obs.GaugeCampaignETASeconds),
		famWorker: reg.GaugeFamily(obs.FamilyCampaignWorkerDone, obs.LabelWorker),
	}
}

// begin arms the tracker for a run of total scenarios across workers.
func (p *Progress) begin(total, workers int) {
	if p == nil {
		return
	}
	p.total.Store(int64(total))
	p.done.Store(0)
	p.detect.Store(0)
	p.missed.Store(0)
	p.falseA.Store(0)
	p.wallNS.Store(0)
	p.startNS.Store(time.Now().UnixNano())
	ws := &workerSet{done: make([]atomic.Int64, workers), gauges: make([]*obs.Gauge, workers)}
	for w := range ws.gauges {
		ws.gauges[w] = p.famWorker.Gauge(strconv.Itoa(w))
		ws.gauges[w].Set(0)
	}
	p.workers.Store(ws)
	p.gTotal.Set(int64(total))
	p.gDone.Set(0)
	p.gDetected.Set(0)
	p.gMissed.Set(0)
	p.gFalse.Set(0)
	p.gRate.Set(0)
	p.gETA.Set(0)
	p.running.Store(true)
}

// scenarioDone records one finished scenario's classification and
// refreshes the derived throughput and ETA gauges. One clock read per
// scenario — noise against a scenario's multi-ms replay cost.
func (p *Progress) scenarioDone(worker int, detected, missed, falseAlarm bool) {
	if p == nil {
		return
	}
	done := p.done.Add(1)
	p.gDone.Set(done)
	if ws := p.workers.Load(); ws != nil && worker >= 0 && worker < len(ws.done) {
		ws.gauges[worker].Set(ws.done[worker].Add(1))
	}
	if detected {
		p.gDetected.Set(p.detect.Add(1))
	}
	if missed {
		p.gMissed.Set(p.missed.Add(1))
	}
	if falseAlarm {
		p.gFalse.Set(p.falseA.Add(1))
	}
	elapsed := time.Duration(time.Now().UnixNano() - p.startNS.Load())
	if secs := elapsed.Seconds(); secs > 0 {
		rate := float64(done) / secs
		p.gRate.Set(int64(rate * 1000))
		if remaining := p.total.Load() - done; remaining >= 0 && rate > 0 {
			p.gETA.Set(int64(float64(remaining) / rate))
		}
	}
}

// finish latches the wall clock and marks the run complete.
func (p *Progress) finish() {
	if p == nil {
		return
	}
	p.wallNS.Store(time.Now().UnixNano() - p.startNS.Load())
	p.gETA.Set(0)
	p.running.Store(false)
}

// ProgressSnapshot is one NDJSON line of /campaign.
type ProgressSnapshot struct {
	Running        bool    `json:"running"`
	Total          int64   `json:"total"`
	Done           int64   `json:"done"`
	Detected       int64   `json:"detected"`
	Missed         int64   `json:"missed"`
	FalseAlarms    int64   `json:"false_alarms"`
	ScenPerSec     float64 `json:"scen_per_sec"`
	ETASeconds     float64 `json:"eta_seconds"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	Workers        []int64 `json:"workers,omitempty"`
}

// Snapshot captures the tracker's current state. Nil-safe.
func (p *Progress) Snapshot() ProgressSnapshot {
	if p == nil {
		return ProgressSnapshot{}
	}
	s := ProgressSnapshot{
		Running:     p.running.Load(),
		Total:       p.total.Load(),
		Done:        p.done.Load(),
		Detected:    p.detect.Load(),
		Missed:      p.missed.Load(),
		FalseAlarms: p.falseA.Load(),
	}
	var elapsed time.Duration
	if s.Running {
		elapsed = time.Duration(time.Now().UnixNano() - p.startNS.Load())
	} else {
		elapsed = time.Duration(p.wallNS.Load())
	}
	s.ElapsedSeconds = elapsed.Seconds()
	if s.ElapsedSeconds > 0 {
		s.ScenPerSec = float64(s.Done) / s.ElapsedSeconds
		if s.Running && s.ScenPerSec > 0 {
			s.ETASeconds = float64(s.Total-s.Done) / s.ScenPerSec
		}
	}
	if ws := p.workers.Load(); ws != nil {
		s.Workers = make([]int64, len(ws.done))
		for i := range ws.done {
			s.Workers[i] = ws.done[i].Load()
		}
	}
	return s
}

// DefaultStreamInterval is how often ServeHTTP emits a snapshot line.
const DefaultStreamInterval = 500 * time.Millisecond

// ServeHTTP streams progress as NDJSON: one snapshot immediately, then
// one per interval, ending with the final (running=false) snapshot or
// when the client goes away. Mount it with
// obs.RegisterHTTPHandler("/campaign", p).
func (p *Progress) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	fl, _ := w.(http.Flusher)
	interval := DefaultStreamInterval
	if iv := r.URL.Query().Get("interval_ms"); iv != "" {
		if ms, err := strconv.Atoi(iv); err == nil && ms > 0 {
			interval = time.Duration(ms) * time.Millisecond
		}
	}
	for {
		snap := p.Snapshot()
		if err := enc.Encode(snap); err != nil {
			return
		}
		if fl != nil {
			fl.Flush()
		}
		if !snap.Running {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-time.After(interval):
		}
	}
}
