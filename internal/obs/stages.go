package obs

// Names of the interception pipeline's stage histograms and shared
// instruments — agreed between core (the checker), trace (the
// interceptor), sim (the Extended Simulator), and eval (the Section II-C
// latency breakdown). One command's life: intercept wraps everything,
// before.validate and before.trajectory decompose the pre-check,
// execute is the device action, after.fetch and after.compare decompose
// the post-check.
const (
	// StageIntercept times the whole interception of one command.
	StageIntercept = "intercept"
	// StageValidate times precondition validation (Fig. 2 line 6).
	StageValidate = "before.validate"
	// StageTrajectory times the Extended-Simulator collision sweep
	// (Fig. 2 lines 8–10).
	StageTrajectory = "before.trajectory"
	// StageExecute times device execution between the checks.
	StageExecute = "execute"
	// StageFetch times the post-state acquisition (Fig. 2 line 13).
	StageFetch = "after.fetch"
	// StageCompare times the expected-vs-observed comparison (Fig. 2
	// line 14).
	StageCompare = "after.compare"
)

// Shared counter and gauge names.
const (
	// CounterCommands counts commands fully processed by the engine.
	CounterCommands = "commands"
	// CounterCheckNS accumulates nanoseconds spent inside Before/After —
	// the Section II-C aggregate, kept for Engine.CheckOverhead.
	CounterCheckNS = "check.ns"
	// CounterSimChecks counts Extended-Simulator collision sweeps.
	CounterSimChecks = "sim.collision_checks"
	// CounterSimBroadphasePruned counts solids and planes the simulator's
	// broadphase proved unreachable by a trajectory's swept volume and
	// excluded from the narrow phase.
	CounterSimBroadphasePruned = "sim.broadphase_pruned"
	// CounterSimBroadphaseKept counts solids and planes that survived the
	// broadphase and were tested per sample.
	CounterSimBroadphaseKept = "sim.broadphase_kept"
	// CounterSimIndexCandidates counts the deck solids the spatial index's
	// swept-AABB queries returned as narrow-phase candidates, before the
	// per-check exclusion mask — the index's selectivity numerator.
	CounterSimIndexCandidates = "sim.index_candidates"
	// CounterSimIndexRebuilds counts deck spatial-index rebuilds: one per
	// deck-epoch generation the cold path touched.
	CounterSimIndexRebuilds = "sim.index_rebuilds"
	// HistSimIndexRebuild times deck spatial-index rebuilds.
	HistSimIndexRebuild = "sim.index_rebuild"
	// GaugeSimChecksInFlight tracks how many trajectory validations are
	// executing right now — >1 demonstrates the per-arm sharded locking.
	GaugeSimChecksInFlight = "sim.checks_in_flight"
	// GaugeGUIFrames tracks frames the simulator GUI has rendered.
	GaugeGUIFrames = "sim.gui_frames"
	// GaugeRules reports how many rules the engine validates against.
	GaugeRules = "engine.rules"
)

// Motion-planning fast-path instruments (plan cache, verdict cache,
// deck epoch, speculative lookahead).
const (
	// CounterPlanCacheHits counts IK plans served from the plan cache.
	CounterPlanCacheHits = "kin.plan_cache_hits"
	// CounterPlanCacheMisses counts IK plans that had to solve.
	CounterPlanCacheMisses = "kin.plan_cache_misses"
	// CounterPlanCacheEvictions counts plan-cache LRU evictions.
	CounterPlanCacheEvictions = "kin.plan_cache_evictions"
	// CounterVerdictCacheHits counts trajectory verdicts served from the
	// simulator's epoch-keyed verdict cache.
	CounterVerdictCacheHits = "sim.verdict_cache_hits"
	// CounterVerdictCacheMisses counts verdicts that ran the full sweep.
	CounterVerdictCacheMisses = "sim.verdict_cache_misses"
	// CounterVerdictCacheEvictions counts verdict-cache LRU evictions.
	CounterVerdictCacheEvictions = "sim.verdict_cache_evictions"
	// CounterDeckEpochBumps counts deck-epoch invalidations: every
	// deck-relevant model mutation bumps the epoch, orphaning all
	// verdicts cached under earlier epochs.
	CounterDeckEpochBumps = "sim.deck_epoch_bumps"
	// CounterSpeculations counts lookahead validations dispatched by the
	// engine while the preceding command executed.
	CounterSpeculations = "core.speculations"
	// CounterSpeculationsDropped counts lookahead hints dropped because
	// the single speculation worker was still busy.
	CounterSpeculationsDropped = "core.speculations_dropped"
	// GaugeSpeculationHits tracks how many on-path validations were
	// answered by a verdict a speculative lookahead had already computed
	// — the count of pre-checks whose latency left the critical path.
	GaugeSpeculationHits = "sim.speculation_hits"
)

// Causal-tracer instruments (internal/obs/trace).
const (
	// CounterTracesStarted counts traces opened by the tracer.
	CounterTracesStarted = "trace.started"
	// CounterTracesRetained counts traces the tail-sampling decision
	// kept (alerts always, the rest probabilistically).
	CounterTracesRetained = "trace.retained"
	// CounterTracesSampledOut counts non-alert traces dropped at the
	// tail-sampling decision.
	CounterTracesSampledOut = "trace.sampled_out"
	// CounterTraceSpansDropped counts spans lost to the per-trace ring
	// bound or published after their trace finished.
	CounterTraceSpansDropped = "trace.spans_dropped"
	// CounterTraceExportErrors counts retained traces the exporter
	// failed to write (the tracer never fails the pipeline on them).
	CounterTraceExportErrors = "trace.export_errors"
)

// Flight-recorder instruments (internal/obs/recorder).
const (
	// CounterRecorderRecords counts records committed to the black-box
	// ring.
	CounterRecorderRecords = "recorder.records"
	// CounterRecorderIncidents counts incident bundles written.
	CounterRecorderIncidents = "recorder.incidents"
	// CounterRecorderErrors counts incident-bundle write failures (the
	// pipeline never fails on them; see Recorder.Err).
	CounterRecorderErrors = "recorder.errors"
)

// Labeled instrument families and their label keys (ISSUE 10): the
// engine's per-rule series, the gateway's per-tenant RED set, and the
// campaign engine's live-progress gauges. Family names follow the flat
// instrument convention (dotted, sanitized at exposition); histogram
// families append their unit at exposition ("_seconds"/"_ratio").
const (
	// LabelRule keys the engine's per-rule families by rule ID.
	LabelRule = "rule"
	// LabelTenant keys the gateway's per-tenant families by lab tenant.
	LabelTenant = "tenant"
	// LabelWorker keys the campaign per-worker family by worker index.
	LabelWorker = "worker"

	// FamilyRuleEvals counts evaluations per rule
	// (rabit_rule_evals_total{rule="…"}).
	FamilyRuleEvals = "rule.evals"
	// FamilyRuleFires counts violations fired per rule
	// (rabit_rule_fires_total{rule="…"}).
	FamilyRuleFires = "rule.fires"
	// FamilyRuleEval times a single rule's evaluation
	// (rabit_rule_eval_seconds{rule="…"}).
	FamilyRuleEval = "rule.eval"
	// FamilyRuleMargin histograms the near-miss margin of non-firing
	// evaluations for rules that expose one — how close (as a fraction
	// of the limit, 0 = at the threshold) the state came to violating
	// (rabit_rule_margin_ratio{rule="…"}).
	FamilyRuleMargin = "rule.margin"

	// FamilyGatewayRequests counts admitted gateway requests per tenant.
	FamilyGatewayRequests = "gateway.requests"
	// FamilyGatewayErrors counts failed gateway requests per tenant.
	FamilyGatewayErrors = "gateway.errors"
	// FamilyGatewayRequest times gateway request handling per tenant.
	FamilyGatewayRequest = "gateway.request"
	// FamilyGatewayQueueDepth gauges admission-queue depth per tenant.
	FamilyGatewayQueueDepth = "gateway.queue_depth"
	// FamilyGatewayRejections counts admission rejections per tenant.
	FamilyGatewayRejections = "gateway.rejections"
	// FamilyGatewaySessions gauges active sessions per tenant.
	FamilyGatewaySessions = "gateway.sessions"
	// FamilyGatewayPanics counts panics recovered at a tenant's session
	// boundary (each one fails the tenant).
	FamilyGatewayPanics = "gateway.panics"
	// CounterGatewaySlowClientAborts counts verdict streams severed by
	// the slow-client write deadline.
	CounterGatewaySlowClientAborts = "gateway.slow_client_aborts"

	// GaugeCampaignTotal / GaugeCampaignDone are the campaign scenario
	// totals; the rest are the live campaign telemetry set.
	GaugeCampaignTotal = "campaign.total"
	// GaugeCampaignDone counts scenarios completed so far.
	GaugeCampaignDone = "campaign.done"
	// GaugeCampaignDetected counts injected faults detected so far.
	GaugeCampaignDetected = "campaign.detected"
	// GaugeCampaignMissed counts injected faults missed so far.
	GaugeCampaignMissed = "campaign.missed"
	// GaugeCampaignFalseAlarms counts alerts on clean scenarios so far.
	GaugeCampaignFalseAlarms = "campaign.false_alarms"
	// GaugeCampaignScenPerSecMilli is current throughput in scenarios
	// per second × 1000 (gauges are integers).
	GaugeCampaignScenPerSecMilli = "campaign.scen_per_sec_milli"
	// GaugeCampaignETASeconds is the estimated seconds to completion.
	GaugeCampaignETASeconds = "campaign.eta_seconds"
	// FamilyCampaignWorkerDone counts scenarios completed per worker
	// (rabit_campaign_worker_done{worker="…"}).
	FamilyCampaignWorkerDone = "campaign.worker_done"
)

// Prefixes for instrument families keyed by a dynamic component.
const (
	// PrefixAlerts + an AlertKind slug counts alerts by kind, e.g.
	// "alerts.invalid_command".
	PrefixAlerts = "alerts."
	// PrefixViolations + a rule ID counts violations by rule, e.g.
	// "violations.general-1".
	PrefixViolations = "violations."
	// PrefixOutcome + "ok"|"blocked"|"error" counts command outcomes.
	PrefixOutcome = "outcome."
	// PrefixDevice + device ID + "." + outcome counts outcomes by device.
	PrefixDevice = "device."
)
