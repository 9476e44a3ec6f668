package core

import (
	"time"

	"repro/internal/action"
	"repro/internal/obs"
	"repro/internal/obs/recorder"
	otrace "repro/internal/obs/trace"
	"repro/internal/state"
)

// Causal-tracing and safety-SLO glue. The interceptor owns the run
// trace and binds each command's root span under (device, seq) in the
// tracer's binding registry; the engine's pipeline stages look the
// binding up and hang their stage spans beneath it — context threads
// through without changing the Checker interface. Span emission is
// retroactive wherever possible: the stages already read the clock for
// their latency histograms, and a finished span is just those two
// timestamps plus an ID, so tracing rides on clock reads the pipeline
// pays anyway. Everything is nil-safe: an engine without a tracer or
// SLO monitor pays one nil check per site.

// WithTracer attaches a causal tracer to the engine. The interceptor
// that drives the engine must share the same tracer — the engine only
// ever parents spans under bindings the interceptor published.
func WithTracer(t *otrace.Tracer) Option {
	return func(e *Engine) { e.tracer = t }
}

// WithSLOs attaches the safety-SLO monitor: every Before/After feeds
// the check-overhead objective, every alert the detection-latency one.
func WithSLOs(s *obs.SafetySLOs) Option {
	return func(e *Engine) { e.slos = s }
}

// tracedValidator is the causal-tracing extension of the trajectory
// check: the simulator parents its kin/sim child spans under the
// intercepted command's trace. Verdicts must be identical to
// ValidTrajectoryProv's.
type tracedValidator interface {
	ValidTrajectoryTraced(cmd action.Command, model state.Snapshot, parent otrace.SpanContext) (recorder.Verdict, error)
}

// tracedSpeculator is the causal-tracing extension of the speculative
// lookahead: child spans of the speculation join the hinting command's
// trace, so a verdict consumed later is causally attributable.
type tracedSpeculator interface {
	SpeculateAfterTraced(prior, next action.Command, model state.Snapshot, epoch uint64, corr string, parent otrace.SpanContext) bool
}

// stageSpan retroactively emits one completed stage span over
// [from, to] under parent, reusing the clock reads the stage histograms
// already made. A non-nil alert marks the span — and thereby pins the
// whole trace for tail-sampling retention — as the alert's cause.
func (e *Engine) stageSpan(parent otrace.SpanContext, name string, from, to time.Time, al *Alert) {
	if e.tracer == nil || !parent.Valid() {
		return
	}
	s := e.tracer.StartSpanAt(parent, name, from)
	if al != nil {
		s.MarkAlert(al.Kind.Slug(), al.Error())
	}
	s.EndAt(to)
}

// traceOf resolves the binding the interceptor published for a command,
// and stamps the trace ID into the command's flight record so an
// incident bundle names the retained trace tree that explains it.
func (e *Engine) traceOf(cmd action.Command, a *recorder.Active) otrace.SpanContext {
	if e.tracer == nil {
		return otrace.SpanContext{}
	}
	ctx := e.tracer.Bound(cmd.Device, cmd.Seq)
	if a != nil && ctx.Valid() {
		a.R.SetTrace(ctx.Trace)
	}
	return ctx
}
