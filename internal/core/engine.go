// Package core implements RABIT's execution algorithm (Fig. 2 of the
// paper). The engine sits between the RATracer-style interceptor and the
// lab: for every command it (1) validates the preconditions against its
// tracked model state and raises "Invalid Command!" on violation, (2) for
// robot commands, consults the Extended Simulator when one is attached
// and raises "Invalid trajectory!", (3) computes the expected post-state
// from the transition table, and (4) after execution compares the
// observed device state against the expectation, raising "Device
// malfunction!" on mismatch.
//
// An alert preemptively stops the experiment (the Hein Lab's chosen
// policy); an optional fail-safe handler can be installed for labs where
// freezing mid-action is itself dangerous (Section II-B's caveat about an
// arm left holding a volatile substance).
package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/action"
	"repro/internal/obs"
	"repro/internal/obs/recorder"
	otrace "repro/internal/obs/trace"
	"repro/internal/rules"
	"repro/internal/state"
	"repro/internal/trace"
)

// AlertKind classifies the three alerts of Fig. 2.
type AlertKind int

// Alert kinds.
const (
	// AlertInvalidCommand is Fig. 2 line 7: a precondition violation.
	AlertInvalidCommand AlertKind = iota + 1
	// AlertInvalidTrajectory is Fig. 2 line 10: the Extended Simulator
	// rejected the motion.
	AlertInvalidTrajectory
	// AlertMalfunction is Fig. 2 line 15: observed state diverged from
	// the expected state.
	AlertMalfunction
)

// String renders the alert text of Fig. 2.
func (k AlertKind) String() string {
	switch k {
	case AlertInvalidCommand:
		return "Invalid Command!"
	case AlertInvalidTrajectory:
		return "Invalid trajectory!"
	case AlertMalfunction:
		return "Device malfunction!"
	default:
		return "Unknown alert"
	}
}

// Slug is the alert kind's metric-friendly name.
func (k AlertKind) Slug() string {
	switch k {
	case AlertInvalidCommand:
		return "invalid_command"
	case AlertInvalidTrajectory:
		return "invalid_trajectory"
	case AlertMalfunction:
		return "malfunction"
	default:
		return "unknown"
	}
}

// Alert is one raised safety alert.
type Alert struct {
	Kind       AlertKind
	Cmd        action.Command
	Violations []rules.Violation
	Mismatches []state.Mismatch
	Reason     string
	Time       time.Duration
}

// Error renders the alert as the error the script receives (RATracer
// raises a Python exception in the paper's implementation). The first
// violation and mismatch are spelled out; any further ones are counted,
// so an alert never silently under-reports what it saw.
func (a *Alert) Error() string {
	msg := fmt.Sprintf("RABIT alert: %s command %s", a.Kind, a.Cmd)
	if len(a.Violations) > 0 {
		msg += ": " + a.Violations[0].Error() + andMore(len(a.Violations)-1, "violation", "violations")
	}
	if len(a.Mismatches) > 0 {
		msg += ": " + a.Mismatches[0].String() + andMore(len(a.Mismatches)-1, "mismatch", "mismatches")
	}
	if a.Reason != "" {
		msg += ": " + a.Reason
	}
	return msg
}

// andMore renders the "(and N more …)" suffix for truncated lists.
func andMore(n int, singular, plural string) string {
	switch {
	case n <= 0:
		return ""
	case n == 1:
		return " (and 1 more " + singular + ")"
	default:
		return fmt.Sprintf(" (and %d more %s)", n, plural)
	}
}

// AsAlert extracts an Alert from an error chain.
func AsAlert(err error) (*Alert, bool) {
	var a *Alert
	if errors.As(err, &a) {
		return a, true
	}
	return nil, false
}

// ErrStopped is wrapped by errors returned once the experiment has been
// halted by an alert.
var ErrStopped = errors.New("core: experiment stopped by a previous RABIT alert")

// ErrDraining is returned by Before once the engine has been drained:
// the command was rejected at admission, never checked and never
// executed. Draining is a real gate, not advisory quiescence — a
// gateway replica flips /readyz only after this gate is closed, so a
// submit racing a drain can never slip a command in afterwards.
var ErrDraining = errors.New("core: engine draining; command rejected")

// TrajectoryValidator is the Extended Simulator's interface (Fig. 2,
// lines 8–10). Observe lets the simulator mirror accepted commands.
type TrajectoryValidator interface {
	ValidTrajectory(cmd action.Command, model state.Snapshot) error
	Observe(cmd action.Command, model state.Snapshot)
}

// Environment is what the engine needs from a deployment stage.
type Environment interface {
	Execute(cmd action.Command) error
	FetchState() state.Snapshot
	Now() time.Duration
}

// ScopedEnvironment is an Environment that can additionally report the
// state of just a subset of devices. The sharded pipeline uses it to
// fetch only the commanded devices (plus every sensor — exogenous inputs
// are global by nature) instead of polling the whole deck per command.
// Environments without it fall back to FetchState, which the engine then
// filters down to the command's scope.
type ScopedEnvironment interface {
	Environment
	FetchStateScoped(ids []string) state.Snapshot
}

// Option configures the engine.
type Option func(*Engine)

// WithSimulator attaches an Extended Simulator.
func WithSimulator(v TrajectoryValidator) Option {
	return func(e *Engine) { e.sim = v }
}

// WithFailSafe installs a handler invoked on every alert, e.g. to command
// a safe parking pose instead of freezing.
func WithFailSafe(fn func(Alert)) Option {
	return func(e *Engine) { e.failSafe = fn }
}

// WithInitialModel seeds the engine's dead-reckoned model facts (container
// positions, stoppers) from the lab configuration.
func WithInitialModel(s state.Snapshot) Option {
	return func(e *Engine) { e.seed = s.Clone() }
}

// WithSerialPipeline forces every command through the global single-lock
// pipeline, disabling per-device sharding. Parity tests and the
// throughput baseline use it; the sharded pipeline is the default.
func WithSerialPipeline() Option {
	return func(e *Engine) { e.serial = true }
}

// WithoutRuleMetrics disables per-rule instrumentation (evaluation and
// fire counts, eval latency, near-miss margins): validation runs the
// uninstrumented path with zero per-rule cost. The overhead benchmark's
// baseline uses it; deployments keep the default (enabled).
func WithoutRuleMetrics() Option {
	return func(e *Engine) { e.noRuleMetrics = true }
}

// WithObserver attaches a telemetry registry — typically the system-wide
// one shared with the interceptor and simulator. Passing nil disables
// instrumentation entirely (CheckOverhead then reports zero); without
// this option the engine owns a private registry.
func WithObserver(reg *obs.Registry) Option {
	return func(e *Engine) {
		e.obs = reg
		e.obsSet = true
	}
}

// Engine is RABIT's core checker.
//
// Locking. The engine runs two pipelines:
//
//   - The global pipeline holds mu exclusively in Before and in After —
//     the seed design. Robot motion and manipulation (whose rules and
//     transitions reach across devices), commands whose rule bucket reads
//     other devices' state (rb.LabelReadsGlobal), and everything under
//     WithSerialPipeline take this path.
//   - The sharded pipeline holds mu shared, plus just its own devices'
//     shard mutexes, for the whole Before→execute→After cycle, so
//     disjoint-device commands validate, execute, fetch, and compare
//     concurrently.
//
// A global Before or After therefore never overlaps a sharded cycle: its
// full-state fetch, compare and commit cannot see a device mid-cycle or
// overwrite a fresher sharded commit. The cost is that a global section
// waits for in-flight sharded cycles, execution included.
//
// Shared structures get their own short-section locks: stateMu guards the
// model (readers validate/compare under RLock, commits take Lock),
// adminMu guards started/stopped/alerts, shardMu guards the shard table.
// Lock order is mu (shared or exclusive) → shard mutexes → stateMu →
// adminMu; shardMu is a leaf taken only for table lookups, never while
// acquiring shard mutexes.
// The fail-safe handler runs outside every lock, after the check span has
// been stamped into cCheckNS (the handler may command devices and take
// arbitrarily long; its time is the lab's, not the checker's).
type Engine struct {
	mu        sync.RWMutex // exclusive: global pipeline; shared: sharded cycles
	rb        *rules.Rulebase
	env       Environment
	scopedEnv ScopedEnvironment // env, when it supports scoped fetch
	sim       TrajectoryValidator
	serial    bool

	stateMu sync.RWMutex
	seed    state.Snapshot
	model   state.Snapshot // S_current: observed facts + dead-reckoned model

	// Motion fast path (see speculate.go): the simulator's deck-epoch and
	// speculation surfaces when it offers them, the single-flight gate and
	// drain group for the lookahead worker.
	epocher    deckEpocher
	spec       speculator
	specTagged speculatorTagged
	specOff    bool
	specBusy   atomic.Bool
	specWG     sync.WaitGroup

	// pending is S_expected for the in-flight global-path command(s),
	// layered over the model copy-on-write. Concurrent batches chain
	// several Befores onto one cumulative expectation that a single
	// After settles. Guarded by mu.
	pending *state.Overlay

	// Flight recorder (see record.go): rec is the black box, pendingRecs
	// the open records of the in-flight global batch (guarded by mu, like
	// pending), provSim the simulator's provenance surface when it offers
	// one.
	rec         *recorder.Recorder
	pendingRecs []*recorder.Active
	provSim     provValidator

	// Causal tracing & safety SLOs (see tracing.go): tracer resolves the
	// (device, seq) → span bindings the interceptor published; tracedSim
	// and tracedSpec are the simulator's traced surfaces when it offers
	// them; slos feeds the check-overhead and detection-latency
	// objectives. All nil-safe.
	tracer     *otrace.Tracer
	tracedSim  tracedValidator
	tracedSpec tracedSpeculator
	slos       *obs.SafetySLOs

	adminMu  sync.Mutex
	started  bool
	stopped  *Alert
	alerts   []Alert
	failSafe func(Alert)

	// draining gates admission (see Drain); inflight counts Before/After
	// calls currently inside the engine so Drain can wait them out.
	draining atomic.Bool
	inflight atomic.Int64

	// shardMu guards the per-device shard table (see shard.go).
	shardMu sync.Mutex
	shards  map[string]*sync.Mutex
	tickets map[string]*shardTicket

	// obs is the telemetry registry; the instruments below are resolved
	// once at construction so the hot path never takes a map lookup.
	// All of them tolerate being nil (instrumentation disabled).
	obs    *obs.Registry
	obsSet bool
	// hValidate/hTrajectory/hFetch/hCompare are the per-stage latency
	// histograms decomposing the Section II-C overhead.
	hValidate   *obs.Histogram
	hTrajectory *obs.Histogram
	hFetch      *obs.Histogram
	hCompare    *obs.Histogram
	// cCheckNS accumulates wall time spent inside Before/After — the
	// aggregate the paper measures — and cCommands counts commands fully
	// processed. Both live in the registry so /metrics sees them.
	cCheckNS  *obs.Counter
	cCommands *obs.Counter
	// cSpeculations/cSpecDropped count lookahead hints taken and dropped
	// by the single-flight gate.
	cSpeculations *obs.Counter
	cSpecDropped  *obs.Counter
	// ruleMetrics caches per-rule instruments (ISSUE 10); nil when
	// disabled via WithoutRuleMetrics or when instrumentation is off.
	ruleMetrics   *rules.RuleMetrics
	noRuleMetrics bool
}

var _ trace.Checker = (*Engine)(nil)

// New builds an engine over a rulebase and an environment.
func New(rb *rules.Rulebase, env Environment, opts ...Option) *Engine {
	e := &Engine{rb: rb, env: env, seed: state.Snapshot{}}
	e.scopedEnv, _ = env.(ScopedEnvironment)
	for _, o := range opts {
		o(e)
	}
	if !e.obsSet {
		e.obs = obs.NewRegistry("engine")
	}
	e.hValidate = e.obs.Histogram(obs.StageValidate)
	e.hTrajectory = e.obs.Histogram(obs.StageTrajectory)
	e.hFetch = e.obs.Histogram(obs.StageFetch)
	e.hCompare = e.obs.Histogram(obs.StageCompare)
	e.cCheckNS = e.obs.Counter(obs.CounterCheckNS)
	e.cCommands = e.obs.Counter(obs.CounterCommands)
	e.cSpeculations = e.obs.Counter(obs.CounterSpeculations)
	e.cSpecDropped = e.obs.Counter(obs.CounterSpeculationsDropped)
	if !e.noRuleMetrics {
		e.ruleMetrics = rules.NewRuleMetrics(e.obs, rb)
	}
	// The motion fast path engages only when the simulator carries a deck
	// epoch — without it there is no sound pairing to speculate against.
	e.epocher, _ = e.sim.(deckEpocher)
	if e.epocher != nil {
		e.spec, _ = e.sim.(speculator)
		e.specTagged, _ = e.sim.(speculatorTagged)
	}
	e.provSim, _ = e.sim.(provValidator)
	e.tracedSim, _ = e.sim.(tracedValidator)
	if e.epocher != nil {
		e.tracedSpec, _ = e.sim.(tracedSpeculator)
	}
	return e
}

// Recorder returns the attached flight recorder (nil when recording is
// disabled).
func (e *Engine) Recorder() *recorder.Recorder { return e.rec }

// Obs returns the engine's telemetry registry (nil when instrumentation
// was disabled via WithObserver(nil)).
func (e *Engine) Obs() *obs.Registry { return e.obs }

// Start acquires S_initial (Fig. 2 lines 1–3): the configured model facts
// overlaid with the first observed snapshot. No commands may be in flight.
func (e *Engine) Start() {
	e.mu.Lock()
	defer e.mu.Unlock()
	observed := e.env.FetchState()
	e.stateMu.Lock()
	e.model = e.seed.Merge(observed)
	if e.epocher != nil {
		// The whole model was rebuilt; every cached verdict is suspect.
		e.epocher.BumpDeckEpoch()
	}
	e.stateMu.Unlock()
	e.adminMu.Lock()
	e.started = true
	e.stopped = nil
	e.alerts = nil
	e.adminMu.Unlock()
	// A fresh run reopens the admission gate a previous Drain closed.
	e.draining.Store(false)
	e.pending = nil
	e.pendingRecs = nil
	e.shardMu.Lock()
	e.shards = map[string]*sync.Mutex{}
	e.tickets = map[string]*shardTicket{}
	e.shardMu.Unlock()
	// A fresh run measures from zero: reset the engine-owned instruments
	// (cached pointers stay valid; other components' instruments in a
	// shared registry are untouched), including the dynamically named
	// alert and violation families — otherwise /metrics keeps reporting
	// the previous run's alert totals across restarts.
	e.cCheckNS.Reset()
	e.cCommands.Reset()
	e.hValidate.Reset()
	e.hTrajectory.Reset()
	e.hFetch.Reset()
	e.hCompare.Reset()
	e.obs.ResetPrefix(obs.PrefixAlerts)
	e.obs.ResetPrefix(obs.PrefixViolations)
	e.ruleMetrics.Reset()
	e.obs.Gauge(obs.GaugeRules).Set(int64(len(e.rb.Rules())))
	e.slos.Reset()
}

// Rebind points the engine at a different environment and restarts it
// against that environment's observed state. It is the pooled-engine
// reset path: a campaign runner reuses one engine (rulebase, simulator,
// instruments, caches) across thousands of generated scenarios, swapping
// only the world underneath. The caller must guarantee quiescence — no
// commands in flight and no speculation running (Drain + WaitSpeculation)
// — exactly as for Start.
func (e *Engine) Rebind(env Environment) {
	e.mu.Lock()
	e.env = env
	e.scopedEnv, _ = env.(ScopedEnvironment)
	e.mu.Unlock()
	e.Start()
}

// Model returns a copy of the engine's current model state.
func (e *Engine) Model() state.Snapshot {
	e.stateMu.RLock()
	defer e.stateMu.RUnlock()
	return e.model.Clone()
}

// Alerts returns all alerts raised so far.
func (e *Engine) Alerts() []Alert {
	e.adminMu.Lock()
	defer e.adminMu.Unlock()
	out := make([]Alert, len(e.alerts))
	copy(out, e.alerts)
	return out
}

// Stopped returns the alert that halted the experiment, if any.
func (e *Engine) Stopped() *Alert {
	e.adminMu.Lock()
	defer e.adminMu.Unlock()
	return e.stopped
}

// CheckOverhead returns the cumulative wall time spent in RABIT checks
// and the number of commands processed. It reads the telemetry registry
// (atomics), so it is safe to call concurrently with checks.
func (e *Engine) CheckOverhead() (time.Duration, int) {
	return time.Duration(e.cCheckNS.Value()), int(e.cCommands.Value())
}

// adminState reads the started flag and stop alert.
func (e *Engine) adminState() (bool, *Alert) {
	e.adminMu.Lock()
	defer e.adminMu.Unlock()
	return e.started, e.stopped
}

// raise records an alert and halts the experiment. It takes only adminMu,
// so both pipelines may raise concurrently. The stored alert is handed
// back through fs for the caller's wrapper to pass to the fail-safe
// handler — outside all locks and outside the measured check window
// (the seed charged the handler's runtime to check overhead; see
// Engine.finish).
func (e *Engine) raise(a Alert, fs **Alert) *Alert {
	a.Time = e.env.Now()
	e.adminMu.Lock()
	e.alerts = append(e.alerts, a)
	stored := &e.alerts[len(e.alerts)-1]
	e.stopped = stored
	e.adminMu.Unlock()
	e.obs.Counter(obs.PrefixAlerts + a.Kind.Slug()).Inc()
	for _, v := range a.Violations {
		e.obs.Counter(obs.PrefixViolations + v.Rule.ID).Inc()
	}
	e.obs.Emit(obs.Event{
		T:      a.Time,
		Kind:   "alert",
		Name:   a.Kind.Slug(),
		Device: a.Cmd.Device,
		Seq:    a.Cmd.Seq,
		Detail: stored.Error(),
	})
	if fs != nil {
		*fs = stored
	}
	return stored
}

// finish closes a check: the span is stamped into cCheckNS first, then —
// and only then — the fail-safe handler runs, outside every engine lock.
// The handler may command devices or park an arm; that time belongs to
// the lab's response, not to RABIT's check overhead.
func (e *Engine) finish(start time.Time, fsAlert *Alert) {
	d := time.Since(start)
	e.cCheckNS.Add(d.Nanoseconds())
	e.slos.ObserveCheck(d)
	if fsAlert != nil && e.failSafe != nil {
		e.failSafe(*fsAlert)
	}
}

// Drain closes the admission gate and waits until every in-flight
// Before/After call has left the engine. Commands submitted afterwards
// are rejected with ErrDraining; a command whose Before was already
// admitted may still run its After (an in-flight cycle finishes its
// checks). The gate-then-wait order makes the race benign: an admission
// that read the gate open is visible to the drainer's wait, an
// admission that started after the gate closed is rejected. Start
// reopens the gate for a fresh run.
func (e *Engine) Drain() {
	e.draining.Store(true)
	for e.inflight.Load() > 0 {
		time.Sleep(200 * time.Microsecond)
	}
}

// Draining reports whether the admission gate is closed.
func (e *Engine) Draining() bool { return e.draining.Load() }

// InFlight reports how many Before/After calls are inside the engine:
// admitted, and not yet returned.
func (e *Engine) InFlight() int64 { return e.inflight.Load() }

// admit counts a checker call in-flight; gated calls are rejected once
// the engine drains. The increment happens before the gate read — see
// Drain for why that order closes the submit/drain race.
func (e *Engine) admit(gated bool) error {
	e.inflight.Add(1)
	if gated && e.draining.Load() {
		e.inflight.Add(-1)
		return ErrDraining
	}
	return nil
}

// Before implements Fig. 2 lines 5–11: validity, trajectory, and the
// expected-state computation. Commands whose rules read only their own
// devices run on the sharded pipeline; the rest serialize globally.
func (e *Engine) Before(cmd action.Command) error {
	if err := e.admit(true); err != nil {
		return err
	}
	defer e.inflight.Add(-1)
	start := time.Now()
	cmd = rules.NormalizeCommand(e.rb.Lab(), cmd)
	var fsAlert *Alert
	var err error
	if e.routeSharded(cmd) {
		err = e.beforeSharded(cmd, start, &fsAlert)
	} else {
		err = e.beforeGlobal(cmd, start, &fsAlert)
	}
	e.finish(start, fsAlert)
	return err
}

// After implements Fig. 2 lines 13–16: fetch the actual state, compare
// with the expectation, and commit S_current. After is never gated:
// a command admitted before a drain still settles its post-state check.
func (e *Engine) After(cmd action.Command) error {
	e.admit(false)
	defer e.inflight.Add(-1)
	start := time.Now()
	cmd = rules.NormalizeCommand(e.rb.Lab(), cmd)
	var fsAlert *Alert
	var err error
	if e.routeSharded(cmd) {
		err = e.afterSharded(cmd, start, &fsAlert)
	} else {
		err = e.afterGlobal(cmd, start, &fsAlert)
	}
	e.finish(start, fsAlert)
	return err
}

// beforeGlobal is the seed pipeline: one lock across the whole check.
func (e *Engine) beforeGlobal(cmd action.Command, start time.Time, fs **Alert) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	started, stopped := e.adminState()
	if !started {
		return fmt.Errorf("core: engine not started")
	}
	if stopped != nil {
		return fmt.Errorf("%w: %s", ErrStopped, stopped.Error())
	}
	act := e.beginRecord(cmd, recorder.PathGlobal)
	tctx := e.traceOf(cmd, act)
	// Stage boundaries share clock reads to keep instrumentation under
	// 1% of a check: before.validate runs from Before's entry (it covers
	// normalization + rule evaluation) and its end stamp doubles as
	// before.trajectory's start. Trace spans reuse the same stamps.
	traceID := tctx.Trace // zero when untraced: no exemplar
	e.stateMu.RLock()
	vs := e.rb.ValidateObserved(e.model, cmd, e.ruleMetrics, traceID)
	if act != nil {
		scope := recordScope(cmd, e.model.GetString(state.ContainerInside(cmd.Device)))
		act.R.Pre = recorder.CaptureView(e.model, scope)
	}
	e.stateMu.RUnlock()
	validateEnd := time.Now()
	vd := validateEnd.Sub(start)
	e.hValidate.ObserveExemplar(vd, traceID)
	if act != nil {
		act.R.Spans.ValidateNS = vd.Nanoseconds()
	}
	if len(vs) > 0 {
		al := e.raise(Alert{Kind: AlertInvalidCommand, Cmd: cmd, Violations: vs}, fs)
		e.stageSpan(tctx, obs.StageValidate, start, validateEnd, al)
		e.recordAlert(act, al)
		return al
	}
	e.stageSpan(tctx, obs.StageValidate, start, validateEnd, nil)
	if cmd.Action.IsRobotMotion() && e.sim != nil {
		var err error
		// The trajectory span is the one pre-created (not retroactive)
		// span: the simulator's kin/sim child spans need its context
		// before the call runs.
		tspan := e.tracer.StartSpanAt(tctx, obs.StageTrajectory, validateEnd)
		e.stateMu.RLock()
		switch {
		case tspan != nil && e.tracedSim != nil:
			var v recorder.Verdict
			v, err = e.tracedSim.ValidTrajectoryTraced(cmd, e.model, tspan.Context())
			if act != nil {
				act.R.Verdict = v
			}
		case act != nil && e.provSim != nil:
			act.R.Verdict, err = e.provSim.ValidTrajectoryProv(cmd, e.model)
		default:
			err = e.sim.ValidTrajectory(cmd, e.model)
		}
		e.stateMu.RUnlock()
		trajEnd := time.Now()
		td := trajEnd.Sub(validateEnd)
		e.hTrajectory.ObserveExemplar(td, traceID)
		if act != nil {
			act.R.Spans.TrajectoryNS = td.Nanoseconds()
		}
		if err != nil {
			al := e.raise(Alert{Kind: AlertInvalidTrajectory, Cmd: cmd, Reason: err.Error()}, fs)
			if tspan != nil {
				tspan.MarkAlert(al.Kind.Slug(), al.Error())
			}
			tspan.EndAt(trajEnd)
			e.recordAlert(act, al)
			return al
		}
		tspan.EndAt(trajEnd)
	}
	e.stateMu.RLock()
	if e.pending == nil {
		e.pending = e.rb.ExpectedOverlay(e.model, cmd)
	} else {
		e.pending = e.rb.ExpectedOverlay(e.pending, cmd)
	}
	e.stateMu.RUnlock()
	if act != nil {
		act.R.Expected = recorder.CaptureEdits(e.pending)
		e.pendingRecs = append(e.pendingRecs, act)
	}
	return nil
}

// afterGlobal settles a global-path command. Holding mu exclusively
// waits out every in-flight sharded cycle, so the full-state fetch sees
// each device settled and the commit cannot overwrite a sharded commit.
func (e *Engine) afterGlobal(cmd action.Command, start time.Time, fs **Alert) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, stopped := e.adminState(); stopped != nil {
		return fmt.Errorf("%w: %s", ErrStopped, stopped.Error())
	}
	// Only commands that run the compare/commit path below count as fully
	// processed; the stopped early-return above must not inflate the
	// "commands" total after an alert has halted the run.
	e.cCommands.Inc()
	pending := e.pending
	e.pending = nil
	recs := e.pendingRecs
	e.pendingRecs = nil
	// The After belongs to one command of the batch; its batch-mates'
	// records settle alongside it (see settleBatch).
	var act *recorder.Active
	for _, a := range recs {
		if a != nil && a.R.Seq == cmd.Seq && a.R.Device == cmd.Device {
			act = a
		}
	}
	tctx := e.traceOf(cmd, act)
	traceID := tctx.Trace // zero when untraced: no exemplar
	// after.fetch runs from After's entry through state acquisition; its
	// end stamp doubles as after.compare's start (see Before).
	observed := e.env.FetchState()
	fetchEnd := time.Now()
	fd := fetchEnd.Sub(start)
	e.hFetch.ObserveExemplar(fd, traceID)
	e.stateMu.RLock()
	var expected state.View = e.model
	if pending != nil {
		expected = pending
	}
	ms := state.CompareObservedView(expected, observed)
	if act != nil {
		scope := recordScope(cmd, e.model.GetString(state.ContainerInside(cmd.Device)))
		act.R.Observed = recorder.CaptureView(observed, scope)
	}
	e.stateMu.RUnlock()
	compareEnd := time.Now()
	cd := compareEnd.Sub(fetchEnd)
	e.hCompare.ObserveExemplar(cd, traceID)
	if act != nil {
		act.R.Spans.FetchNS = fd.Nanoseconds()
		act.R.Spans.CompareNS = cd.Nanoseconds()
	}
	e.stageSpan(tctx, obs.StageFetch, start, fetchEnd, nil)
	if len(ms) > 0 {
		al := e.raise(Alert{Kind: AlertMalfunction, Cmd: cmd, Mismatches: ms}, fs)
		e.stageSpan(tctx, obs.StageCompare, fetchEnd, compareEnd, al)
		e.recordAlert(act, al)
		by := ""
		if act != nil {
			by = act.R.Corr
		}
		e.settleBatch(recs, act, by)
		return al
	}
	e.stageSpan(tctx, obs.StageCompare, fetchEnd, compareEnd, nil)
	// S_current ← SetState(S_actual): observed facts win, dead-reckoned
	// model facts persist. The pending overlay commits its edits into the
	// live model in place — no full-map clone on the hot path — and any
	// deck-relevant change bumps the simulator's epoch in the same
	// critical section (see commitModel).
	epoch := e.commitModel(pending, observed, cmd)
	if act != nil {
		act.R.Verdict.EpochAtCommit = epoch
		act.Commit()
		e.settleBatch(recs, act, act.R.Corr)
	} else {
		e.settleBatch(recs, nil, "")
	}
	return nil
}
