// Package trace is the reproduction of RATracer, the instrumentation
// framework the paper reconfigures (Section II-C): every device command an
// experiment script issues flows through an Interceptor, which first asks
// a checker (RABIT) whether the command is safe, then forwards it for
// execution, then lets the checker inspect the post-state. On request
// (SetKeepRecords) the interceptor also keeps RAD-style command traces,
// which the radmine package mines for rules (Section II-A).
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/action"
	"repro/internal/obs"
	"repro/internal/obs/recorder"
	otrace "repro/internal/obs/trace"
)

// Record is one traced command, in the style of the Robot Arm Dataset
// (RAD): what was issued, when, and how it ended.
type Record struct {
	Seq     int            `json:"seq"`
	Time    time.Duration  `json:"t"`
	Cmd     action.Command `json:"cmd"`
	Outcome string         `json:"outcome"` // "ok", "blocked", "error"
	Detail  string         `json:"detail,omitempty"`
}

// Checker is the RABIT side of the interception: Before runs the Fig. 2
// validation (lines 5–10) and returns an error to block the command;
// After runs the post-state comparison (lines 13–15).
type Checker interface {
	Before(cmd action.Command) error
	After(cmd action.Command) error
}

// Hinter is an optional Checker extension: Hint(cur, next) tells the
// checker that next is queued behind the currently executing cur, so it
// may pre-solve and pre-validate next's trajectory off the critical path
// (the engine's speculative lookahead). Hint must not block and must be
// safe to call with commands the checker will never actually see.
type Hinter interface {
	Hint(cur, next action.Command)
}

// Executor forwards a command to the lab for actual execution.
type Executor interface {
	Execute(cmd action.Command) error
	// Now returns the lab's current (simulated) time for trace stamps.
	Now() time.Duration
}

// Interceptor wires scripts, checker, and executor together. It is safe
// for concurrent use, though experiment scripts are sequential.
type Interceptor struct {
	mu       sync.Mutex
	checker  Checker
	executor Executor
	seq      int

	// keep selects whole-run record retention (SetKeepRecords): records
	// then holds every command's Record for Records to return. Off, the
	// interceptor keeps nothing past the current call, so a long-lived
	// session costs constant memory per command. call holds the current
	// call's records (reused across calls); finish publishes them and,
	// with keep on, appends them to records.
	keep    bool
	records []Record
	call    []Record

	// obs publishes per-command telemetry: the intercept and execute
	// stage spans, outcome counters (total and per device), and one
	// structured event per record. All nil-safe when no observer is set.
	// counters caches each outcome counter the first time a (device,
	// outcome) pair lands — device "" is the total — so the hot path
	// neither builds its name nor looks it up in the registry again.
	// Registry resets zero counters in place, so cached pointers stay
	// valid; SetObserver drops the cache.
	obs        *obs.Registry
	hIntercept *obs.Histogram
	hExecute   *obs.Histogram
	counters   map[outcomeKey]*obs.Counter

	// rec is the flight recorder (nil-safe): the interceptor back-fills
	// each command's black-box record with its final outcome and the
	// execution span, which the engine never sees. lastExecNS carries the
	// current call's execute span to the record() annotation.
	rec        *recorder.Recorder
	lastExecNS int64

	// tracer is the causal tracer (nil = tracing off). The interceptor
	// owns the run trace: the first command lazily opens it, every
	// command gets an "intercept" root span bound under (device, seq) so
	// the engine's stages can parent beneath it, and FinishTrace closes
	// the run and makes the tail-sampling decision.
	tracer  *otrace.Tracer
	traceID otrace.TraceID
}

// NewInterceptor builds an interceptor. checker may be nil (tracing
// without RABIT — how RATracer originally ran, and how the no-RABIT
// baselines of the evaluation run).
func NewInterceptor(checker Checker, executor Executor) *Interceptor {
	return &Interceptor{checker: checker, executor: executor}
}

// SetObserver attaches a telemetry registry (nil detaches it).
func (i *Interceptor) SetObserver(reg *obs.Registry) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.obs = reg
	i.hIntercept = reg.Histogram(obs.StageIntercept)
	i.hExecute = reg.Histogram(obs.StageExecute)
	i.counters = nil
}

// SetKeepRecords turns whole-run record retention on or off (default
// off). Only a caller that reads Records — rabit.System.Trace, the
// radmine corpus — turns it on; a gateway session or a campaign
// scenario keeps nothing, so its memory does not grow with commands.
func (i *Interceptor) SetKeepRecords(keep bool) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.keep = keep
}

// SetRecorder attaches a flight recorder (nil detaches it); the
// interceptor annotates each command's record with its outcome and
// execution span.
func (i *Interceptor) SetRecorder(r *recorder.Recorder) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.rec = r
}

// SetTracer attaches a causal tracer (nil detaches it). It must be the
// same tracer the checker's engine carries, or the engine's stage spans
// will not find the interceptor's bindings.
func (i *Interceptor) SetTracer(t *otrace.Tracer) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.tracer = t
}

// TraceID returns the current run trace's ID (zero when tracing is off
// or no command has run since the last FinishTrace).
func (i *Interceptor) TraceID() otrace.TraceID {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.traceID
}

// FinishTrace closes the current run trace and makes the tail-sampling
// retention decision, returning the trace's ID and whether it was
// retained. The next command opens a fresh trace.
func (i *Interceptor) FinishTrace() (otrace.TraceID, bool) {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.finishTraceLocked()
}

func (i *Interceptor) finishTraceLocked() (otrace.TraceID, bool) {
	id := i.traceID
	i.traceID = otrace.TraceID{}
	if i.tracer == nil || id.IsZero() {
		return id, false
	}
	return id, i.tracer.FinishTrace(id)
}

// rootSpan lazily opens the run trace and starts one command's
// "intercept" root span, binding it under (device, seq) for the
// engine's pipeline stages. Returns nil when tracing is off (callers
// hold i.mu).
func (i *Interceptor) rootSpan(cmd action.Command) *otrace.Span {
	if i.tracer == nil {
		return nil
	}
	if i.traceID.IsZero() {
		i.traceID = i.tracer.StartTrace()
	}
	s := i.tracer.StartRoot(i.traceID, obs.StageIntercept)
	s.SetAttr("device", cmd.Device)
	s.SetAttr("action", string(cmd.Action))
	s.SetIntAttr("seq", cmd.Seq)
	i.tracer.Bind(cmd.Device, cmd.Seq, s.Context())
	return s
}

// outcomeKey names one cached outcome counter: device "" is the total.
type outcomeKey struct{ device, outcome string }

// outcomeCounter returns the counter for (device, outcome), resolving
// it in the registry on first use (callers hold i.mu and have checked
// i.obs).
func (i *Interceptor) outcomeCounter(device, outcome string) *obs.Counter {
	k := outcomeKey{device, outcome}
	if c, ok := i.counters[k]; ok {
		return c
	}
	name := obs.PrefixOutcome + outcome
	if device != "" {
		name = obs.PrefixDevice + device + "." + outcome
	}
	c := i.obs.Counter(name)
	if i.counters == nil {
		i.counters = make(map[outcomeKey]*obs.Counter)
	}
	i.counters[k] = c
	return c
}

// finish closes the intercept span and publishes outcome counters and
// events for every record of the current call, then retains them if
// the interceptor keeps records (callers hold i.mu).
func (i *Interceptor) finish(span obs.Span) {
	d := span.End()
	if i.keep {
		i.records = append(i.records, i.call...)
	}
	if i.obs == nil {
		return
	}
	for _, r := range i.call {
		i.outcomeCounter("", r.Outcome).Inc()
		if r.Cmd.Device != "" {
			i.outcomeCounter(r.Cmd.Device, r.Outcome).Inc()
		}
		i.obs.Emit(obs.Event{
			T:       r.Time,
			Kind:    "command",
			Name:    string(r.Cmd.Action),
			Device:  r.Cmd.Device,
			Outcome: r.Outcome,
			Detail:  r.Detail,
			Seq:     r.Seq,
			DurNS:   d.Nanoseconds(),
		})
	}
}

// Do traces and executes one command: check → execute → post-check. A
// blocked command returns the checker's error without reaching the
// device, mirroring RATracer raising a Python exception to halt the
// experiment.
func (i *Interceptor) Do(cmd action.Command) error {
	return i.do(cmd, action.Command{}, false)
}

// DoLookahead is Do with knowledge of the next queued command: once cmd
// passes its Before check, the checker (if it is a Hinter) is hinted with
// the pair before execution starts, so a speculative lookahead can
// overlap cmd's execution time. Verdicts are identical to Do — the hint
// only warms caches.
func (i *Interceptor) DoLookahead(cmd, next action.Command) error {
	return i.do(cmd, next, true)
}

func (i *Interceptor) do(cmd, next action.Command, lookahead bool) (err error) {
	i.mu.Lock()
	defer i.mu.Unlock()
	span := i.hIntercept.Start()
	i.call = i.call[:0]
	defer i.finish(span)
	i.seq++
	cmd.Seq = i.seq
	i.lastExecNS = 0
	root := i.rootSpan(cmd)
	if root != nil {
		defer func() {
			if err != nil {
				root.SetError(err.Error())
			}
			i.tracer.Unbind(cmd.Device, cmd.Seq)
			root.End()
		}()
	}
	if err := cmd.Validate(); err != nil {
		i.record(cmd, "error", err.Error())
		return err
	}
	if i.checker != nil {
		if err := i.checker.Before(cmd); err != nil {
			i.record(cmd, "blocked", err.Error())
			return err
		}
		if lookahead {
			if h, ok := i.checker.(Hinter); ok {
				h.Hint(cmd, next)
			}
		}
	}
	spanExec := i.hExecute.Start()
	execSpan := i.tracer.StartSpan(root.Context(), obs.StageExecute)
	execErr := i.executor.Execute(cmd)
	if execErr != nil {
		execSpan.SetError(execErr.Error())
	}
	execSpan.End()
	i.lastExecNS = spanExec.End().Nanoseconds()
	if err := execErr; err != nil {
		i.record(cmd, "error", err.Error())
		// The checker still observes the aftermath: a physical crash is
		// an execution error *and* leaves state worth comparing.
		if i.checker != nil {
			if aerr := i.checker.After(cmd); aerr != nil {
				return fmt.Errorf("%w (post-state: %v)", err, aerr)
			}
		}
		return err
	}
	if i.checker != nil {
		if err := i.checker.After(cmd); err != nil {
			i.record(cmd, "error", err.Error())
			return err
		}
	}
	i.record(cmd, "ok", "")
	return nil
}

// record appends a trace record to the current call and back-fills the
// command's black-box record, if a flight recorder is attached (callers
// hold i.mu).
func (i *Interceptor) record(cmd action.Command, outcome, detail string) {
	var now time.Duration
	if i.executor != nil {
		now = i.executor.Now()
	}
	i.call = append(i.call, Record{
		Seq: cmd.Seq, Time: now, Cmd: cmd, Outcome: outcome, Detail: detail,
	})
	i.rec.Annotate(cmd.Device, cmd.Seq, outcome, i.lastExecNS)
}

// ConcurrentExecutor is implemented by environments that can run several
// robot moves simultaneously (the space-multiplexing capability).
type ConcurrentExecutor interface {
	ExecuteConcurrent(cmds []action.Command) error
}

// DoConcurrent traces and executes several commands as one simultaneous
// motion: every command is checked individually before any executes, the
// environment runs them in lockstep, and post-state checks run once the
// motion settles.
func (i *Interceptor) DoConcurrent(cmds []action.Command) (err error) {
	i.mu.Lock()
	defer i.mu.Unlock()
	span := i.hIntercept.Start()
	i.call = i.call[:0]
	defer i.finish(span)
	i.lastExecNS = 0
	ce, ok := i.executor.(ConcurrentExecutor)
	if !ok {
		return fmt.Errorf("trace: executor cannot run concurrent commands")
	}
	stamped := make([]action.Command, len(cmds))
	for k, cmd := range cmds {
		i.seq++
		cmd.Seq = i.seq
		if err := cmd.Validate(); err != nil {
			i.record(cmd, "error", err.Error())
			return err
		}
		stamped[k] = cmd
	}
	// The batch shares one root span — the commands execute as one
	// simultaneous motion — with every (device, seq) bound to it so each
	// command's pipeline stages parent under the same node.
	var root *otrace.Span
	if len(stamped) > 0 {
		root = i.rootSpan(stamped[0])
		if root != nil {
			root.SetIntAttr("batch", len(stamped))
			for _, cmd := range stamped[1:] {
				i.tracer.Bind(cmd.Device, cmd.Seq, root.Context())
			}
			defer func() {
				if err != nil {
					root.SetError(err.Error())
				}
				for _, cmd := range stamped {
					i.tracer.Unbind(cmd.Device, cmd.Seq)
				}
				root.End()
			}()
		}
	}
	if i.checker != nil {
		for _, cmd := range stamped {
			if err := i.checker.Before(cmd); err != nil {
				i.record(cmd, "blocked", err.Error())
				return err
			}
		}
	}
	last := stamped[len(stamped)-1]
	spanExec := i.hExecute.Start()
	execSpan := i.tracer.StartSpan(root.Context(), obs.StageExecute)
	execErr := ce.ExecuteConcurrent(stamped)
	if execErr != nil {
		execSpan.SetError(execErr.Error())
	}
	execSpan.End()
	i.lastExecNS = spanExec.End().Nanoseconds()
	if err := execErr; err != nil {
		for _, cmd := range stamped {
			i.record(cmd, "error", err.Error())
		}
		// The batch settles with a single post-state check: its commands
		// executed as one simultaneous motion.
		if i.checker != nil {
			if aerr := i.checker.After(last); aerr != nil {
				return fmt.Errorf("%w (post-state: %v)", err, aerr)
			}
		}
		return err
	}
	if i.checker != nil {
		if err := i.checker.After(last); err != nil {
			i.record(last, "error", err.Error())
			return err
		}
	}
	for _, cmd := range stamped {
		i.record(cmd, "ok", "")
	}
	return nil
}

// Records returns a copy of the trace so far: every command since the
// last Reset when the interceptor keeps records (SetKeepRecords), none
// otherwise.
func (i *Interceptor) Records() []Record {
	i.mu.Lock()
	defer i.mu.Unlock()
	out := make([]Record, len(i.records))
	copy(out, i.records)
	return out
}

// Reset clears the trace and sequence counter (between evaluation
// runs), closing any open run trace so the next run starts a fresh one.
func (i *Interceptor) Reset() {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.records = nil
	i.seq = 0
	i.finishTraceLocked()
}

// Replay feeds a recorded command stream back through an interceptor:
// offline checking of a captured experiment against a fresh lab — the
// "testing experiment scripts" use the paper's three-stage framework
// exists for, applied to traces instead of live scripts. Replay stops at
// the first error (alert or execution failure). The recorded stream is
// the lookahead's ideal input — the next command is always known — so
// each command is replayed with a hint for its successor.
func Replay(i *Interceptor, records []Record) error {
	for idx, r := range records {
		var err error
		if idx+1 < len(records) {
			err = i.DoLookahead(r.Cmd, records[idx+1].Cmd)
		} else {
			err = i.Do(r.Cmd)
		}
		if err != nil {
			return fmt.Errorf("trace: replaying #%d %s: %w", r.Seq, r.Cmd, err)
		}
	}
	return nil
}

// WriteJSONL streams records as JSON lines — the on-disk trace format.
func WriteJSONL(w io.Writer, records []Record) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i, r := range records {
		if err := enc.Encode(r); err != nil {
			return fmt.Errorf("trace: encode record %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// ReadJSONL loads a JSONL trace.
func ReadJSONL(r io.Reader) ([]Record, error) {
	var out []Record
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: scan: %w", err)
	}
	return out, nil
}
