package trace

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/action"
	"repro/internal/geom"
)

// fakeChecker scripts Before/After outcomes.
type fakeChecker struct {
	beforeErr error
	afterErr  error
	befores   []action.Command
	afters    []action.Command
}

func (f *fakeChecker) Before(cmd action.Command) error {
	f.befores = append(f.befores, cmd)
	return f.beforeErr
}

func (f *fakeChecker) After(cmd action.Command) error {
	f.afters = append(f.afters, cmd)
	return f.afterErr
}

// fakeExecutor records executions.
type fakeExecutor struct {
	err  error
	cmds []action.Command
	now  time.Duration
}

func (f *fakeExecutor) Execute(cmd action.Command) error {
	f.cmds = append(f.cmds, cmd)
	f.now += time.Second
	return f.err
}

func (f *fakeExecutor) Now() time.Duration { return f.now }

func (f *fakeExecutor) ExecuteConcurrent(cmds []action.Command) error {
	f.cmds = append(f.cmds, cmds...)
	f.now += time.Second
	return f.err
}

// keeping turns on whole-run record retention, which the tests that
// read Records need (it is off by default).
func keeping(i *Interceptor) *Interceptor {
	i.SetKeepRecords(true)
	return i
}

func cmdOpen() action.Command {
	return action.Command{Device: "dd", Action: action.OpenDoor}
}

func TestDoHappyPath(t *testing.T) {
	ch := &fakeChecker{}
	ex := &fakeExecutor{}
	i := keeping(NewInterceptor(ch, ex))

	if err := i.Do(cmdOpen()); err != nil {
		t.Fatal(err)
	}
	if len(ch.befores) != 1 || len(ch.afters) != 1 || len(ex.cmds) != 1 {
		t.Fatalf("hook counts wrong: %d/%d/%d", len(ch.befores), len(ex.cmds), len(ch.afters))
	}
	recs := i.Records()
	if len(recs) != 1 || recs[0].Outcome != "ok" || recs[0].Seq != 1 {
		t.Fatalf("records wrong: %+v", recs)
	}
}

func TestDoBlockedCommandNeverExecutes(t *testing.T) {
	ch := &fakeChecker{beforeErr: errors.New("unsafe")}
	ex := &fakeExecutor{}
	i := keeping(NewInterceptor(ch, ex))

	if err := i.Do(cmdOpen()); err == nil {
		t.Fatal("blocked command returned nil")
	}
	if len(ex.cmds) != 0 {
		t.Fatal("blocked command reached the executor")
	}
	recs := i.Records()
	if len(recs) != 1 || recs[0].Outcome != "blocked" {
		t.Fatalf("records wrong: %+v", recs)
	}
}

func TestDoExecutionErrorStillRunsAfter(t *testing.T) {
	ch := &fakeChecker{}
	ex := &fakeExecutor{err: errors.New("collision")}
	i := keeping(NewInterceptor(ch, ex))

	err := i.Do(cmdOpen())
	if err == nil || !strings.Contains(err.Error(), "collision") {
		t.Fatalf("want collision error, got %v", err)
	}
	if len(ch.afters) != 1 {
		t.Fatal("After must observe the aftermath of a failed execution")
	}
}

func TestDoInvalidCommandRejectedStructurally(t *testing.T) {
	i := keeping(NewInterceptor(nil, &fakeExecutor{}))
	err := i.Do(action.Command{Action: action.MoveRobot}) // no device
	if err == nil {
		t.Fatal("structurally invalid command accepted")
	}
}

func TestDoWithoutChecker(t *testing.T) {
	ex := &fakeExecutor{}
	i := keeping(NewInterceptor(nil, ex))
	if err := i.Do(cmdOpen()); err != nil {
		t.Fatal(err)
	}
	if len(ex.cmds) != 1 {
		t.Fatal("command not executed")
	}
}

func TestSequenceNumbersMonotonic(t *testing.T) {
	i := keeping(NewInterceptor(nil, &fakeExecutor{}))
	for k := 0; k < 5; k++ {
		if err := i.Do(cmdOpen()); err != nil {
			t.Fatal(err)
		}
	}
	recs := i.Records()
	for k, r := range recs {
		if r.Seq != k+1 {
			t.Errorf("record %d has seq %d", k, r.Seq)
		}
	}
	i.Reset()
	if len(i.Records()) != 0 {
		t.Fatal("Reset left records")
	}
	if err := i.Do(cmdOpen()); err != nil {
		t.Fatal(err)
	}
	if i.Records()[0].Seq != 1 {
		t.Fatal("Reset did not restart the sequence")
	}
}

func TestDoConcurrentChecksAllBeforeExecuting(t *testing.T) {
	ch := &fakeChecker{}
	ex := &fakeExecutor{}
	i := keeping(NewInterceptor(ch, ex))
	cmds := []action.Command{
		{Device: "a1", Action: action.MoveRobot, Target: geom.V(0.1, 0, 0.2)},
		{Device: "a2", Action: action.MoveRobot, Target: geom.V(0.3, 0, 0.2)},
	}
	if err := i.DoConcurrent(cmds); err != nil {
		t.Fatal(err)
	}
	if len(ch.befores) != 2 {
		t.Fatalf("want 2 Befores, got %d", len(ch.befores))
	}
	// The batch settles with one After (the last command).
	if len(ch.afters) != 1 || ch.afters[0].Device != "a2" {
		t.Fatalf("want one After for the last command, got %v", ch.afters)
	}
	if len(i.Records()) != 2 {
		t.Fatalf("want 2 records, got %d", len(i.Records()))
	}
}

func TestDoConcurrentBlockedBeforeStopsBatch(t *testing.T) {
	ch := &fakeChecker{beforeErr: errors.New("mux violation")}
	ex := &fakeExecutor{}
	i := keeping(NewInterceptor(ch, ex))
	cmds := []action.Command{
		{Device: "a1", Action: action.MoveRobot, Target: geom.V(0.1, 0, 0.2)},
		{Device: "a2", Action: action.MoveRobot, Target: geom.V(0.3, 0, 0.2)},
	}
	if err := i.DoConcurrent(cmds); err == nil {
		t.Fatal("blocked batch returned nil")
	}
	if len(ex.cmds) != 0 {
		t.Fatal("blocked batch reached the executor")
	}
}

func TestDoConcurrentRequiresCapableExecutor(t *testing.T) {
	// An executor without ExecuteConcurrent cannot run batches.
	i := keeping(NewInterceptor(nil, execOnly{}))
	err := i.DoConcurrent([]action.Command{{Device: "a", Action: action.MoveRobot, Target: geom.V(0.1, 0, 0.2)}})
	if err == nil {
		t.Fatal("incapable executor accepted a concurrent batch")
	}
}

type execOnly struct{}

func (execOnly) Execute(cmd action.Command) error { return nil }
func (execOnly) Now() time.Duration               { return 0 }

func TestJSONLRoundTrip(t *testing.T) {
	recs := []Record{
		{Seq: 1, Time: time.Second, Outcome: "ok",
			Cmd: action.Command{Device: "viperx", Action: action.MoveRobot, Target: geom.V(0.1, 0.2, 0.3)}},
		{Seq: 2, Time: 2 * time.Second, Outcome: "blocked", Detail: "rule general-1",
			Cmd: action.Command{Device: "dd", Action: action.OpenDoor}},
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("round trip lost records: %d", len(got))
	}
	if got[0].Cmd.Target != geom.V(0.1, 0.2, 0.3) {
		t.Errorf("target lost: %v", got[0].Cmd.Target)
	}
	if got[1].Detail != "rule general-1" {
		t.Errorf("detail lost: %q", got[1].Detail)
	}
}

func TestReadJSONLRejectsGarbage(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader("not json\n")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestReplay(t *testing.T) {
	// Record a short command stream, then replay it through a fresh
	// interceptor with a blocking checker: replay stops at the first
	// alert and reports which command tripped it.
	rec := keeping(NewInterceptor(nil, &fakeExecutor{}))
	for i := 0; i < 3; i++ {
		if err := rec.Do(cmdOpen()); err != nil {
			t.Fatal(err)
		}
	}
	records := rec.Records()

	clean := keeping(NewInterceptor(&fakeChecker{}, &fakeExecutor{}))
	if err := Replay(clean, records); err != nil {
		t.Fatalf("clean replay failed: %v", err)
	}
	if len(clean.Records()) != 3 {
		t.Errorf("replay recorded %d commands", len(clean.Records()))
	}

	blocking := keeping(NewInterceptor(&fakeChecker{beforeErr: errors.New("unsafe")}, &fakeExecutor{}))
	err := Replay(blocking, records)
	if err == nil {
		t.Fatal("blocking replay should stop")
	}
	if !strings.Contains(err.Error(), "replaying #1") {
		t.Errorf("error should cite the record: %v", err)
	}
}

// hintChecker is a fakeChecker that also records lookahead hints.
type hintChecker struct {
	fakeChecker
	hints [][2]action.Command
}

func (h *hintChecker) Hint(cur, next action.Command) {
	h.hints = append(h.hints, [2]action.Command{cur, next})
}

func TestDoLookaheadHintsChecker(t *testing.T) {
	ch := &hintChecker{}
	ex := &fakeExecutor{}
	i := keeping(NewInterceptor(ch, ex))
	cur := cmdOpen()
	next := action.Command{Device: "arm", Action: action.MoveRobot, Target: geom.V(0.2, 0.1, 0.2)}
	if err := i.DoLookahead(cur, next); err != nil {
		t.Fatal(err)
	}
	if len(ch.hints) != 1 {
		t.Fatalf("hints = %d, want 1", len(ch.hints))
	}
	if ch.hints[0][1].Target != next.Target {
		t.Errorf("hint carried wrong successor: %v", ch.hints[0][1])
	}
	// Plain Do never hints, and a blocked command is not followed by a
	// hint (there is nothing to overlap with).
	if err := i.Do(cur); err != nil {
		t.Fatal(err)
	}
	blocked := &hintChecker{fakeChecker: fakeChecker{beforeErr: errors.New("unsafe")}}
	ib := keeping(NewInterceptor(blocked, &fakeExecutor{}))
	if err := ib.DoLookahead(cur, next); err == nil {
		t.Fatal("blocked command accepted")
	}
	if len(blocked.hints) != 0 {
		t.Error("blocked command still hinted the checker")
	}
	if len(ch.hints) != 1 {
		t.Errorf("plain Do hinted the checker (%d)", len(ch.hints))
	}
}

func TestReplayHintsSuccessors(t *testing.T) {
	rec := keeping(NewInterceptor(nil, &fakeExecutor{}))
	targets := []geom.Vec3{geom.V(0.1, 0, 0.2), geom.V(0.2, 0, 0.2), geom.V(0.3, 0, 0.2)}
	for _, tgt := range targets {
		cmd := action.Command{Device: "arm", Action: action.MoveRobot, Target: tgt}
		if err := rec.Do(cmd); err != nil {
			t.Fatal(err)
		}
	}
	ch := &hintChecker{}
	if err := Replay(NewInterceptor(ch, &fakeExecutor{}), rec.Records()); err != nil {
		t.Fatal(err)
	}
	// N records produce N-1 hints, each pairing a command with its successor.
	if len(ch.hints) != len(targets)-1 {
		t.Fatalf("hints = %d, want %d", len(ch.hints), len(targets)-1)
	}
	for k, h := range ch.hints {
		if h[0].Target != targets[k] || h[1].Target != targets[k+1] {
			t.Errorf("hint %d pairs %v -> %v, want %v -> %v",
				k, h[0].Target, h[1].Target, targets[k], targets[k+1])
		}
	}
}
