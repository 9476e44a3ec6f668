package campaign

import (
	"bufio"
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestProgressGaugesMirrorAtomics(t *testing.T) {
	reg := obs.NewRegistry("campaign")
	p := NewProgress(reg)
	p.begin(10, 2)
	p.scenarioDone(0, true, false, false)
	p.scenarioDone(1, false, true, false)
	p.scenarioDone(1, false, false, true)

	snap := reg.Snapshot()
	for name, want := range map[string]int64{
		obs.GaugeCampaignTotal:       10,
		obs.GaugeCampaignDone:        3,
		obs.GaugeCampaignDetected:    1,
		obs.GaugeCampaignMissed:      1,
		obs.GaugeCampaignFalseAlarms: 1,
	} {
		if got := snap.Gauge(name); got != want {
			t.Errorf("gauge %s = %d, want %d", name, got, want)
		}
	}
	fam, ok := snap.Family(obs.FamilyCampaignWorkerDone)
	if !ok {
		t.Fatal("per-worker family missing")
	}
	if len(fam.Gauges) != 2 || fam.Gauges[0].Value != 1 || fam.Gauges[1].Value != 2 {
		t.Fatalf("per-worker gauges = %+v, want worker 0→1, worker 1→2", fam.Gauges)
	}

	ps := p.Snapshot()
	if !ps.Running || ps.Total != 10 || ps.Done != 3 || ps.Detected != 1 || ps.Missed != 1 || ps.FalseAlarms != 1 {
		t.Fatalf("snapshot = %+v", ps)
	}
	if len(ps.Workers) != 2 || ps.Workers[0] != 1 || ps.Workers[1] != 2 {
		t.Fatalf("snapshot workers = %v", ps.Workers)
	}

	p.finish()
	if ps = p.Snapshot(); ps.Running {
		t.Fatal("snapshot still running after finish")
	}
	if got := snap.Gauge(obs.GaugeCampaignETASeconds); got != 0 {
		t.Fatalf("ETA gauge %d after finish, want 0", got)
	}
}

func TestProgressNilSafety(t *testing.T) {
	var p *Progress
	p.begin(5, 1)
	p.scenarioDone(0, true, true, true)
	p.finish()
	if s := p.Snapshot(); s.Running || s.Total != 0 {
		t.Fatalf("nil snapshot = %+v", s)
	}
	// A Progress with no registry stays NDJSON-only without panicking.
	q := NewProgress(nil)
	q.begin(2, 1)
	q.scenarioDone(0, true, false, false)
	q.finish()
	if s := q.Snapshot(); s.Done != 1 {
		t.Fatalf("registry-less tracker lost a scenario: %+v", s)
	}
}

// The NDJSON stream emits snapshots until the campaign completes, then
// terminates with the final running=false line.
func TestProgressServeHTTPStream(t *testing.T) {
	p := NewProgress(nil)
	p.begin(4, 1)
	p.scenarioDone(0, true, false, false)

	done := make(chan struct{})
	go func() {
		defer close(done)
		time.Sleep(30 * time.Millisecond)
		p.scenarioDone(0, false, true, false)
		p.finish()
	}()

	rec := httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/campaign?interval_ms=5", nil)
	p.ServeHTTP(rec, req)
	<-done

	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	var lines []ProgressSnapshot
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		var s ProgressSnapshot
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		lines = append(lines, s)
	}
	if len(lines) < 2 {
		t.Fatalf("stream emitted %d lines, want at least first+final", len(lines))
	}
	first, last := lines[0], lines[len(lines)-1]
	if !first.Running || first.Done != 1 {
		t.Fatalf("first line = %+v, want running with 1 done", first)
	}
	if last.Running {
		t.Fatal("stream did not terminate on the final running=false snapshot")
	}
	if last.Done != 2 || last.Missed != 1 || last.ETASeconds != 0 {
		t.Fatalf("final line = %+v", last)
	}
	for _, s := range lines[:len(lines)-1] {
		if !s.Running {
			t.Fatal("running=false snapshot emitted before the end of the stream")
		}
	}
}

// A real (tiny) campaign run drives Progress to totals that match the
// returned summary. A poller snapshots the tracker throughout, as the
// /campaign stream does, so under -race this also checks that Run's
// start publishes per-worker state safely.
func TestProgressTracksRun(t *testing.T) {
	reg := obs.NewRegistry("campaign")
	p := NewProgress(reg)
	stop := make(chan struct{})
	polled := make(chan struct{})
	go func() {
		defer close(polled)
		for {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
				_ = p.Snapshot()
			}
		}
	}()
	sum, err := Run(Options{N: 12, Seed: 7, Workers: 2, Progress: p})
	close(stop)
	<-polled
	if err != nil {
		t.Fatal(err)
	}
	s := p.Snapshot()
	if s.Running {
		t.Fatal("tracker still running after Run returned")
	}
	if s.Total != int64(sum.N) || s.Done != int64(sum.N) {
		t.Fatalf("progress done %d/%d, summary N %d", s.Done, s.Total, sum.N)
	}
	tot := sum.Totals()
	if s.Detected != tot.Detected || s.Missed != tot.Missed || s.FalseAlarms != sum.FalseAlarms {
		t.Fatalf("progress %+v disagrees with summary (detected %d missed %d false %d)",
			s, tot.Detected, tot.Missed, sum.FalseAlarms)
	}
	var perWorker int64
	for _, n := range s.Workers {
		perWorker += n
	}
	if perWorker != s.Done {
		t.Fatalf("per-worker counts sum to %d, done %d", perWorker, s.Done)
	}
	if got := reg.Snapshot().Gauge(obs.GaugeCampaignDone); got != int64(sum.N) {
		t.Fatalf("done gauge %d, want %d", got, sum.N)
	}
}
