package rules

import (
	"time"

	"repro/internal/action"
	"repro/internal/obs"
	"repro/internal/state"
)

// Per-rule observability (ISSUE 10). The aggregate check-overhead
// series says the checker is slow or firing; it cannot say *which rule*
// is slow, which fires most, or which rules pass by a hair. RuleMetrics
// resolves one instrument set per rule from the labeled families at
// construction, so the observed validation path pays only atomic
// increments plus one chained clock read per rule — no map lookups,
// no allocation — and /metrics/prom grows rule-labeled series:
//
//	rabit_rule_evals_total{rule="general-1"}  evaluations
//	rabit_rule_fires_total{rule="general-1"}  violations fired
//	rabit_rule_eval_seconds{rule="general-1"} evaluation latency
//	rabit_rule_margin_ratio{rule="general-8"} near-miss margin
//
// The margin histogram is the drift detector: rules that can quantify
// headroom (capacity and threshold checks) report how close each
// passing command came to the limit, so a lab trending toward its first
// violation is visible before the alert.

// ruleInstruments is one rule's cached instrument set.
type ruleInstruments struct {
	evals  *obs.Counter
	fires  *obs.Counter
	lat    *obs.Histogram
	margin *obs.Histogram // nil for rules without a Margin
}

// RuleMetrics holds per-rule instruments indexed by rule position.
// Build one per engine with NewRuleMetrics; nil disables per-rule
// instrumentation (ValidateObserved then degrades to Validate).
type RuleMetrics struct {
	perRule []ruleInstruments
}

// NewRuleMetrics resolves one instrument set per rule of the rulebase
// from reg's labeled families. Returns nil (instrumentation off) when
// either argument is nil.
func NewRuleMetrics(reg *obs.Registry, rb *Rulebase) *RuleMetrics {
	if reg == nil || rb == nil {
		return nil
	}
	evals := reg.CounterFamily(obs.FamilyRuleEvals, obs.LabelRule)
	fires := reg.CounterFamily(obs.FamilyRuleFires, obs.LabelRule)
	lat := reg.HistogramFamily(obs.FamilyRuleEval, obs.LabelRule)
	margin := reg.RatioHistogramFamily(obs.FamilyRuleMargin, obs.LabelRule)
	m := &RuleMetrics{perRule: make([]ruleInstruments, len(rb.rules))}
	for i, r := range rb.rules {
		ri := &m.perRule[i]
		ri.evals = evals.Counter(r.ID)
		ri.fires = fires.Counter(r.ID)
		ri.lat = lat.Histogram(r.ID)
		if r.Margin != nil {
			ri.margin = margin.Histogram(r.ID)
		}
	}
	return m
}

// Reset zeroes every rule's instruments — the engine's Start calls it
// so a fresh run (or a pooled engine's next tenant) measures from zero.
// Nil-safe.
func (m *RuleMetrics) Reset() {
	if m == nil {
		return
	}
	for i := range m.perRule {
		ri := &m.perRule[i]
		ri.evals.Reset()
		ri.fires.Reset()
		ri.lat.Reset()
		ri.margin.Reset()
	}
}

// ValidateObserved is Validate with per-rule instrumentation: for every
// rule consulted it counts the evaluation, times it (stage boundaries
// chain clock reads, one per rule), counts a fire when the rule
// violates, and histograms the near-miss margin when the rule passes
// and exposes one. A nonzero traceID (the raw 128-bit causal trace ID)
// is published as the latency bucket's exemplar, linking the metric to
// the causal trace. With a nil
// RuleMetrics it is exactly Validate.
//
// "Evaluated" means consulted: a rule whose AppliesTo rejects the
// command still counts an evaluation (its latency is the cost of
// deciding non-applicability), so fires/evals is a true fire rate over
// everything the rule was shown.
func (rb *Rulebase) ValidateObserved(s state.View, cmd action.Command, m *RuleMetrics, traceID [16]byte) []Violation {
	if m == nil {
		return rb.Validate(s, cmd)
	}
	ctx := &EvalContext{State: s, Cmd: cmd, Lab: rb.lab, Cfg: rb.cfg}
	var out []Violation
	prev := time.Now()
	for _, r := range rb.RulesFor(cmd.Action) {
		if !r.matchesDevice(cmd) {
			continue
		}
		v := r.Evaluate(ctx)
		var mg float64
		hasMargin := false
		if v == nil && r.Margin != nil {
			mg, hasMargin = r.Margin(ctx)
		}
		now := time.Now()
		d := now.Sub(prev)
		prev = now
		ri := &m.perRule[r.index]
		ri.evals.Inc()
		ri.lat.ObserveExemplar(d, traceID)
		if v != nil {
			ri.fires.Inc()
			out = append(out, *v)
			continue
		}
		if hasMargin && ri.margin != nil {
			if mg < 0 {
				mg = 0
			}
			if mg > 1 {
				mg = 1
			}
			// Margins ride the nanosecond histogram as ratio×1e9; the
			// exposition's ns→value conversion recovers the raw ratio, so
			// le="0.001" holds margins of ≤0.1%.
			ri.margin.Observe(time.Duration(mg * 1e9))
		}
	}
	return out
}
