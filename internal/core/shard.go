package core

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/action"
	"repro/internal/obs"
	"repro/internal/obs/recorder"
	otrace "repro/internal/obs/trace"
	"repro/internal/state"
)

// The sharded pipeline.
//
// A command qualifies for sharding when nothing about checking it reaches
// beyond the devices it names: it is not robot motion (trajectory checks
// read arm + full deck geometry) or manipulation (pick/place transitions
// touch location-owner devices), and the rulebase index reports that every
// rule in its label's bucket declares ReadsCommand. Such a command locks
// only its own devices' shard mutexes, which it holds from Before through
// After — execution included — so per-device command cycles serialize
// while disjoint devices proceed concurrently. Holding the shard across
// the cycle is what keeps the Fig. 2 algebra intact per device: the model
// slice a shard validates against cannot change under it, because the
// only writers of a device's keys are that device's own commands (faults
// only suppress a device's own effects) and its commands are serialized
// by the shard lock.
//
// Exogenous sensor variables are the one cross-cutting input: they are
// fetched on every path (scoped fetches always include all sensors) and
// excluded from the malfunction comparison, so concurrent commits of
// fresh sensor readings are benign.

// shardTicket tracks one in-flight sharded command, keyed by its device
// (sound: the device's shard mutex admits one command cycle at a time).
// The cycle holds the engine's mu shared from Before to After, so no
// global-path check or commit runs while a ticket is live.
type shardTicket struct {
	scope    []string // sorted, deduplicated device/container IDs
	scopeSet map[string]bool
	locks    []*sync.Mutex // acquired in scope order
	expected *state.Overlay
	rec      *recorder.Active // flight-recorder record, nil when off
	// tctx is the command's root span context (zero when tracing is off),
	// resolved once in Before and reused by After's stage spans.
	tctx otrace.SpanContext
}

// routeSharded decides the pipeline for a command.
func (e *Engine) routeSharded(cmd action.Command) bool {
	if e.serial {
		return false
	}
	if cmd.Action.IsRobotMotion() || cmd.Action.IsManipulation() {
		return false
	}
	return !e.rb.LabelReadsGlobal(cmd.Action)
}

// shardScope lists the devices and containers a command can read or
// write: the IDs it names, plus the container the model currently places
// inside its device (dosing and start-action rules read its contents;
// dosing writes them).
func (e *Engine) shardScope(cmd action.Command) []string {
	ids := make([]string, 0, 6)
	add := func(id string) {
		if id != "" {
			ids = append(ids, id)
		}
	}
	add(cmd.Device)
	add(cmd.InsideDevice)
	add(cmd.Object)
	add(cmd.FromContainer)
	add(cmd.ToContainer)
	e.stateMu.RLock()
	inside := e.model.GetString(state.ContainerInside(cmd.Device))
	e.stateMu.RUnlock()
	add(inside)
	sort.Strings(ids)
	out := ids[:0]
	for _, id := range ids {
		if len(out) == 0 || out[len(out)-1] != id {
			out = append(out, id)
		}
	}
	return out
}

// lockScope acquires the scope's shard mutexes. The table lookup runs
// under shardMu; the mutexes themselves are locked after shardMu is
// released, in sorted scope order, which makes cross-command acquisition
// deadlock-free.
func (e *Engine) lockScope(scope []string) []*sync.Mutex {
	e.shardMu.Lock()
	locks := make([]*sync.Mutex, len(scope))
	for i, id := range scope {
		m, ok := e.shards[id]
		if !ok {
			m = new(sync.Mutex)
			e.shards[id] = m
		}
		locks[i] = m
	}
	e.shardMu.Unlock()
	for _, m := range locks {
		m.Lock()
	}
	return locks
}

// registerTicket publishes the in-flight command so its After can find
// the expectation its Before computed.
func (e *Engine) registerTicket(device string, t *shardTicket) {
	e.shardMu.Lock()
	e.tickets[device] = t
	e.shardMu.Unlock()
}

// releaseTicket retires the command: bookkeeping first, then the shard
// mutexes in reverse order, then the shared hold on mu.
func (e *Engine) releaseTicket(device string, t *shardTicket) {
	e.shardMu.Lock()
	delete(e.tickets, device)
	e.shardMu.Unlock()
	for i := len(t.locks) - 1; i >= 0; i-- {
		t.locks[i].Unlock()
	}
	e.mu.RUnlock()
}

// lookupTicket finds the in-flight ticket for a device, if any.
func (e *Engine) lookupTicket(device string) *shardTicket {
	e.shardMu.Lock()
	defer e.shardMu.Unlock()
	return e.tickets[device]
}

// fetchScoped obtains the observed state of the scope's devices plus all
// sensors. Environments without scoped fetch are polled in full and
// filtered, which keeps the two fetch paths observationally identical.
func (e *Engine) fetchScoped(t *shardTicket) state.Snapshot {
	if e.scopedEnv != nil {
		observed := e.scopedEnv.FetchStateScoped(t.scope)
		e.filterScope(observed, t.scopeSet)
		return observed
	}
	observed := e.env.FetchState()
	e.filterScope(observed, t.scopeSet)
	return observed
}

// filterScope trims an observed snapshot to keys owned by the scope,
// keeping exogenous variables (sensor readings participate in every
// path's commit and are compare-exempt).
func (e *Engine) filterScope(observed state.Snapshot, scope map[string]bool) {
	for k := range observed {
		if k.IsExogenous() {
			continue
		}
		args := k.Args()
		if len(args) == 0 || !scope[args[0]] {
			delete(observed, k)
		}
	}
}

// beforeSharded validates a command under mu (shared) and its devices'
// shard locks. On success all of them stay held until afterSharded
// releases them.
func (e *Engine) beforeSharded(cmd action.Command, start time.Time, fs **Alert) error {
	started, stopped := e.adminState()
	if !started {
		return fmt.Errorf("core: engine not started")
	}
	if stopped != nil {
		return fmt.Errorf("%w: %s", ErrStopped, stopped.Error())
	}
	e.mu.RLock()
	scope := e.shardScope(cmd)
	t := &shardTicket{scope: scope, scopeSet: make(map[string]bool, len(scope))}
	for _, id := range scope {
		t.scopeSet[id] = true
	}
	t.locks = e.lockScope(scope)
	e.registerTicket(cmd.Device, t)
	// An alert elsewhere may have landed while we waited for the shard;
	// honor it before validating (same check the global path runs).
	if _, stopped := e.adminState(); stopped != nil {
		e.releaseTicket(cmd.Device, t)
		return fmt.Errorf("%w: %s", ErrStopped, stopped.Error())
	}
	t.rec = e.beginRecord(cmd, recorder.PathSharded)
	t.tctx = e.traceOf(cmd, t.rec)
	traceID := t.tctx.Trace // zero when untraced: no exemplar
	e.stateMu.RLock()
	vs := e.rb.ValidateObserved(e.model, cmd, e.ruleMetrics, traceID)
	if len(vs) == 0 {
		t.expected = e.rb.ExpectedOverlay(e.model, cmd)
	}
	if t.rec != nil {
		// The ticket's scope IS the read scope the rules validated over.
		t.rec.R.Pre = recorder.CaptureView(e.model, t.scope)
	}
	e.stateMu.RUnlock()
	validateEnd := time.Now()
	vd := validateEnd.Sub(start)
	e.hValidate.ObserveExemplar(vd, traceID)
	if t.rec != nil {
		t.rec.R.Spans.ValidateNS = vd.Nanoseconds()
	}
	if len(vs) > 0 {
		e.releaseTicket(cmd.Device, t)
		al := e.raise(Alert{Kind: AlertInvalidCommand, Cmd: cmd, Violations: vs}, fs)
		e.stageSpan(t.tctx, obs.StageValidate, start, validateEnd, al)
		e.recordAlert(t.rec, al)
		return al
	}
	e.stageSpan(t.tctx, obs.StageValidate, start, validateEnd, nil)
	if t.rec != nil {
		t.rec.R.Expected = recorder.CaptureEdits(t.expected)
	}
	return nil
}

// afterSharded settles a sharded command: scoped fetch, compare against
// the ticket's expectation, in-place commit, shard release.
func (e *Engine) afterSharded(cmd action.Command, start time.Time, fs **Alert) error {
	t := e.lookupTicket(cmd.Device)
	if t == nil {
		// Before never shard-registered this command (e.g. the engine
		// restarted mid-cycle); fall back to the global settle.
		return e.afterGlobal(cmd, start, fs)
	}
	defer e.releaseTicket(cmd.Device, t)
	if _, stopped := e.adminState(); stopped != nil {
		return fmt.Errorf("%w: %s", ErrStopped, stopped.Error())
	}
	e.cCommands.Inc()
	traceID := t.tctx.Trace // zero when untraced: no exemplar
	observed := e.fetchScoped(t)
	fetchEnd := time.Now()
	fd := fetchEnd.Sub(start)
	e.hFetch.ObserveExemplar(fd, traceID)
	e.stateMu.RLock()
	ms := state.CompareObservedView(t.expected, observed)
	e.stateMu.RUnlock()
	compareEnd := time.Now()
	cd := compareEnd.Sub(fetchEnd)
	e.hCompare.ObserveExemplar(cd, traceID)
	if t.rec != nil {
		t.rec.R.Spans.FetchNS = fd.Nanoseconds()
		t.rec.R.Spans.CompareNS = cd.Nanoseconds()
		t.rec.R.Observed = recorder.CaptureView(observed, t.scope)
	}
	e.stageSpan(t.tctx, obs.StageFetch, start, fetchEnd, nil)
	if len(ms) > 0 {
		al := e.raise(Alert{Kind: AlertMalfunction, Cmd: cmd, Mismatches: ms}, fs)
		e.stageSpan(t.tctx, obs.StageCompare, fetchEnd, compareEnd, al)
		e.recordAlert(t.rec, al)
		return al
	}
	e.stageSpan(t.tctx, obs.StageCompare, fetchEnd, compareEnd, nil)
	// Sharded commands are never robot motion, but they do flip doors and
	// held objects — exactly the deck-relevant changes the commit section
	// must pair with an epoch bump (see commitModel).
	epoch := e.commitModel(t.expected, observed, cmd)
	if t.rec != nil {
		t.rec.R.Verdict.EpochAtCommit = epoch
		t.rec.Commit()
	}
	return nil
}
