package trace

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/action"
	"repro/internal/geom"
	"repro/internal/obs"
)

// TestJSONLRoundTripLargeRecord exercises lines far beyond bufio's
// default 64 KiB scanner buffer — real traces carry long alert details
// (a blocked command's full violation list).
func TestJSONLRoundTripLargeRecord(t *testing.T) {
	big := strings.Repeat("v", 100*1024)
	recs := []Record{
		{Seq: 1, Outcome: "blocked", Detail: big, Cmd: cmdOpen()},
		{Seq: 2, Outcome: "ok", Cmd: cmdOpen()},
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, recs); err != nil {
		t.Fatal(err)
	}
	if buf.Len() < 100*1024 {
		t.Fatalf("suspiciously small encoding: %d bytes", buf.Len())
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("round trip lost records: %d", len(got))
	}
	if got[0].Detail != big {
		t.Fatalf("large detail corrupted: %d bytes back", len(got[0].Detail))
	}
	if got[1].Outcome != "ok" {
		t.Fatalf("record after the large line corrupted: %+v", got[1])
	}
}

// seqChecker blocks exactly one sequence number.
type seqChecker struct {
	blockSeq int
	err      error
}

func (c *seqChecker) Before(cmd action.Command) error {
	if cmd.Seq == c.blockSeq {
		return c.err
	}
	return nil
}

func (c *seqChecker) After(action.Command) error { return nil }

// TestReplayStopsAtFirstBlocked replays a recorded stream into an
// interceptor whose checker blocks the second command: the replay must
// stop right there, wrap the checker's error (errors.Is-visible), cite
// the offending record, and never reach the remaining commands.
func TestReplayStopsAtFirstBlocked(t *testing.T) {
	rec := keeping(NewInterceptor(nil, &fakeExecutor{}))
	for i := 0; i < 4; i++ {
		if err := rec.Do(cmdOpen()); err != nil {
			t.Fatal(err)
		}
	}

	sentinel := errors.New("mux conflict")
	ex := &fakeExecutor{}
	i := keeping(NewInterceptor(&seqChecker{blockSeq: 2, err: sentinel}, ex))
	err := Replay(i, rec.Records())
	if err == nil {
		t.Fatal("replay did not stop at the blocked command")
	}
	if !errors.Is(err, sentinel) {
		t.Errorf("checker error not wrapped: %v", err)
	}
	if !strings.Contains(err.Error(), "replaying #2") {
		t.Errorf("error should cite record #2: %v", err)
	}
	recs := i.Records()
	if len(recs) != 2 || recs[0].Outcome != "ok" || recs[1].Outcome != "blocked" {
		t.Fatalf("replay records wrong: %+v", recs)
	}
	if len(ex.cmds) != 1 {
		t.Fatalf("commands after the block still executed: %d", len(ex.cmds))
	}
}

func TestInterceptorTelemetry(t *testing.T) {
	reg := obs.NewRegistry("interceptor")
	mem := &obs.MemorySink{}
	reg.SetSink(mem)
	ch := &fakeChecker{}
	ex := &fakeExecutor{}
	i := NewInterceptor(ch, ex)
	i.SetObserver(reg)

	if err := i.Do(cmdOpen()); err != nil {
		t.Fatal(err)
	}
	ch.beforeErr = errors.New("unsafe")
	if err := i.Do(cmdOpen()); err == nil {
		t.Fatal("blocked command returned nil")
	}

	snap := reg.Snapshot()
	if got := snap.Counter(obs.PrefixOutcome + "ok"); got != 1 {
		t.Errorf("outcome.ok = %d, want 1", got)
	}
	if got := snap.Counter(obs.PrefixOutcome + "blocked"); got != 1 {
		t.Errorf("outcome.blocked = %d, want 1", got)
	}
	if got := snap.Counter(obs.PrefixDevice + "dd.ok"); got != 1 {
		t.Errorf("device.dd.ok = %d, want 1", got)
	}
	if got := snap.Counter(obs.PrefixDevice + "dd.blocked"); got != 1 {
		t.Errorf("device.dd.blocked = %d, want 1", got)
	}
	if hs, ok := snap.Histogram(obs.StageIntercept); !ok || hs.Count != 2 {
		t.Errorf("intercept histogram = %+v (ok=%v), want 2 spans", hs, ok)
	}
	// Execute ran only for the ok command.
	if hs, ok := snap.Histogram(obs.StageExecute); !ok || hs.Count != 1 {
		t.Errorf("execute histogram = %+v (ok=%v), want 1 span", hs, ok)
	}

	evs := mem.Events()
	if len(evs) != 2 {
		t.Fatalf("want 2 command events, got %+v", evs)
	}
	if evs[0].Kind != "command" || evs[0].Outcome != "ok" || evs[0].Device != "dd" || evs[0].Seq != 1 {
		t.Errorf("event 0 wrong: %+v", evs[0])
	}
	if evs[1].Outcome != "blocked" || evs[1].Detail == "" {
		t.Errorf("event 1 wrong: %+v", evs[1])
	}
}

func TestDoConcurrentTelemetry(t *testing.T) {
	reg := obs.NewRegistry("interceptor")
	i := NewInterceptor(&fakeChecker{}, &fakeExecutor{})
	i.SetObserver(reg)
	cmds := []action.Command{
		{Device: "a1", Action: action.MoveRobot, Target: geom.V(0.1, 0, 0.2)},
		{Device: "a2", Action: action.MoveRobot, Target: geom.V(0.3, 0, 0.2)},
	}
	if err := i.DoConcurrent(cmds); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counter(obs.PrefixOutcome + "ok"); got != 2 {
		t.Errorf("outcome.ok = %d, want 2 (one per batched command)", got)
	}
	if hs, _ := snap.Histogram(obs.StageIntercept); hs.Count != 1 {
		t.Errorf("intercept spans = %d, want 1 (one per batch)", hs.Count)
	}
}

// An interceptor keeps no records unless asked to, and keeping them
// changes nothing it publishes: the same outcome counters (total and
// per device) and the same events, in the same order, for ok, blocked
// and error commands on the single and concurrent paths.
func TestKeepRecordsOptIn(t *testing.T) {
	run := func(keep bool) (*Interceptor, obs.Snapshot, []obs.Event) {
		reg := obs.NewRegistry("interceptor")
		mem := &obs.MemorySink{}
		reg.SetSink(mem)
		ch := &seqChecker{blockSeq: 3, err: errors.New("unsafe")}
		ex := &fakeExecutor{}
		i := NewInterceptor(ch, ex)
		i.SetKeepRecords(keep)
		i.SetObserver(reg)
		for k := 0; k < 4; k++ {
			_ = i.Do(cmdOpen())
		}
		_ = i.Do(action.Command{Action: action.MoveRobot}) // invalid: no device
		_ = i.DoConcurrent([]action.Command{
			{Device: "a1", Action: action.MoveRobot, Target: geom.V(0.1, 0, 0.2)},
			{Device: "a2", Action: action.MoveRobot, Target: geom.V(0.3, 0, 0.2)},
		})
		ex.err = errors.New("jammed")
		_ = i.Do(cmdOpen())
		evs := mem.Events()
		for k := range evs {
			evs[k].DurNS = 0 // wall-clock span, differs run to run
		}
		return i, reg.Snapshot(), evs
	}
	off, offSnap, offEvs := run(false)
	on, onSnap, onEvs := run(true)

	if n := len(off.Records()); n != 0 {
		t.Fatalf("default interceptor kept %d records, want none", n)
	}
	if n := len(on.Records()); n != 8 {
		t.Fatalf("keeping interceptor kept %d records, want 8", n)
	}
	if len(offEvs) != 8 {
		t.Fatalf("want 8 command events, got %d", len(offEvs))
	}
	for k := range onEvs {
		if onEvs[k] != offEvs[k] {
			t.Errorf("event %d: keep on %+v, keep off %+v", k, onEvs[k], offEvs[k])
		}
	}
	for _, name := range []string{
		obs.PrefixOutcome + "ok", obs.PrefixOutcome + "blocked", obs.PrefixOutcome + "error",
		obs.PrefixDevice + "dd.ok", obs.PrefixDevice + "dd.blocked", obs.PrefixDevice + "dd.error",
		obs.PrefixDevice + "a1.ok", obs.PrefixDevice + "a2.ok",
	} {
		if a, b := offSnap.Counter(name), onSnap.Counter(name); a != b || a == 0 {
			t.Errorf("%s: keep off %d, keep on %d (want equal, nonzero)", name, a, b)
		}
	}
	if len(offSnap.Counters) != len(onSnap.Counters) {
		t.Errorf("keep off published %d counters, keep on %d", len(offSnap.Counters), len(onSnap.Counters))
	}
}

// Cached outcome counters survive a registry reset: the reset zeroes
// them in place, and the next command counts from zero.
func TestOutcomeCountersSurviveReset(t *testing.T) {
	reg := obs.NewRegistry("interceptor")
	i := NewInterceptor(&fakeChecker{}, &fakeExecutor{})
	i.SetObserver(reg)
	for k := 0; k < 3; k++ {
		if err := i.Do(cmdOpen()); err != nil {
			t.Fatal(err)
		}
	}
	reg.Reset()
	reg.ResetPrefix(obs.PrefixDevice)
	if err := i.Do(cmdOpen()); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counter(obs.PrefixOutcome + "ok"); got != 1 {
		t.Errorf("outcome.ok after reset = %d, want 1", got)
	}
	if got := snap.Counter(obs.PrefixDevice + "dd.ok"); got != 1 {
		t.Errorf("device.dd.ok after reset = %d, want 1", got)
	}
}
