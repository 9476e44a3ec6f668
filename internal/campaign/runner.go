package campaign

import (
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/env"
	"repro/internal/kin"
	"repro/internal/obs/recorder"
	"repro/internal/rules"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workflow"
	"repro/internal/world"
)

// Options configures a campaign run.
type Options struct {
	// N is the number of scenarios (indices [0, N)).
	N int
	// Seed is the campaign master seed; everything derives from it.
	Seed uint64
	// Workers is the parallel worker count (0 = GOMAXPROCS).
	Workers int
	// DecksPerLab is the number of deck variants per lab config
	// (0 = DefaultDecksPerLab).
	DecksPerLab int
	// Naive disables the engine pool: every scenario pays full
	// construction (spec compile, rulebase, simulator + BVH, engine).
	// This is the calibration baseline the pooled speedup is measured
	// against, not a supported production mode.
	Naive bool
	// IncidentDir, when set, enables incident bundles: one per RABIT
	// alert and — the campaign's own contribution — one per missed
	// unsafe injection, so every oracle-confirmed miss leaves a
	// debuggable artifact.
	IncidentDir string
	// Progress, when set, receives live telemetry: scenario counts,
	// running detection/miss/false-alarm tallies, throughput, ETA, and
	// per-worker progress, published as rabit_campaign_* gauges and the
	// /campaign NDJSON stream. Nil runs silently.
	Progress *Progress
}

// KindStats aggregates scenario outcomes for one fault kind.
type KindStats struct {
	Scenarios int64 `json:"scenarios"`
	// Unsafe counts scenarios the unprotected oracle replay actually
	// damaged (any world damage event).
	Unsafe int64 `json:"unsafe"`
	// Detected / Missed split the unsafe population by whether the
	// protected run raised at least one alert.
	Detected int64 `json:"detected"`
	Missed   int64 `json:"missed"`
	// BenignAlerts counts faulted-but-oracle-safe scenarios that
	// alerted anyway (e.g. a hotplate setpoint above the rule threshold
	// but below the damage threshold). They are conservatism, not false
	// alarms — false alarms are measured on the clean population only.
	BenignAlerts int64 `json:"benign_alerts"`
}

func (k *KindStats) add(o KindStats) {
	k.Scenarios += o.Scenarios
	k.Unsafe += o.Unsafe
	k.Detected += o.Detected
	k.Missed += o.Missed
	k.BenignAlerts += o.BenignAlerts
}

// Summary is a campaign's aggregate result. Every field except WallNS,
// ScenariosPerSec and SweepMemo is an order-independent integer sum, so
// summaries are identical at any worker count — Counts() renders exactly
// the invariant part.
type Summary struct {
	N       int    `json:"n"`
	Seed    uint64 `json:"seed"`
	Workers int    `json:"workers"`
	Naive   bool   `json:"naive"`

	// ByFault is indexed by FaultKind (0 = clean controls).
	ByFault [4]KindStats `json:"by_fault"`
	// FalseAlarms counts clean (unfaulted, oracle-safe) scenarios that
	// alerted.
	FalseAlarms int64 `json:"false_alarms"`
	// DamageMicros is total oracle damage cost in 1e-6 units — summed
	// as integers so the total is associative and worker-count
	// invariant.
	DamageMicros   int64 `json:"damage_micros"`
	IncidentsFiled int64 `json:"incidents_filed"`
	// OracleErrors counts oracle replays that ended on an environment
	// error; RunErrors counts protected replays that ended on a
	// non-alert error; SetupErrors counts scenarios skipped on
	// construction failure.
	OracleErrors int64 `json:"oracle_errors"`
	RunErrors    int64 `json:"run_errors"`
	SetupErrors  int64 `json:"setup_errors"`

	WallNS          int64   `json:"wall_ns"`
	ScenariosPerSec float64 `json:"scenarios_per_sec"`
	// SweepMemo sums the decks' sweep-memo counters (zero in naive
	// mode). Which replay records a sweep first depends on scheduling,
	// so the split between hits and misses varies with the worker count.
	SweepMemo world.SweepMemoStats `json:"sweep_memo"`
}

// Totals sums KindStats across fault kinds.
func (s *Summary) Totals() KindStats {
	var t KindStats
	for i := range s.ByFault {
		t.add(s.ByFault[i])
	}
	return t
}

// Counts renders the worker-count-invariant part of the summary — the
// byte string the determinism property tests compare.
func (s *Summary) Counts() string {
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d seed=%016x naive=%v\n", s.N, s.Seed, s.Naive)
	for k, ks := range s.ByFault {
		fmt.Fprintf(&b, "%-8s scenarios=%d unsafe=%d detected=%d missed=%d benign_alerts=%d\n",
			FaultKind(k), ks.Scenarios, ks.Unsafe, ks.Detected, ks.Missed, ks.BenignAlerts)
	}
	fmt.Fprintf(&b, "false_alarms=%d damage_micros=%d incidents_filed=%d oracle_errors=%d run_errors=%d setup_errors=%d\n",
		s.FalseAlarms, s.DamageMicros, s.IncidentsFiled, s.OracleErrors, s.RunErrors, s.SetupErrors)
	return b.String()
}

// accum is one worker's private accumulator. Workers never share one —
// each merges into the summary after the last scenario, so the hot loop
// is free of shared-counter contention.
type accum struct {
	byFault        [4]KindStats
	falseAlarms    int64
	damageMicros   int64
	incidentsFiled int64
	oracleErrors   int64
	runErrors      int64
	setupErrors    int64
}

// chunkSize is the work-stealing grain: big enough to amortize the
// atomic claim, small enough that a straggler chunk can't idle the other
// workers at the tail.
const chunkSize = 8

// Run executes the campaign. Scenario outcomes are pure functions of
// (seed, index), damage accumulates in integer micro-units, and workers
// claim disjoint index chunks off one atomic counter — so the returned
// summary (minus wall-clock fields) is identical at any worker count.
func Run(o Options) (*Summary, error) {
	if o.N <= 0 {
		return nil, errors.New("campaign: N must be positive")
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	gen, err := NewGenerator(o.Seed, o.DecksPerLab)
	if err != nil {
		return nil, err
	}
	if o.IncidentDir != "" {
		if err := os.MkdirAll(o.IncidentDir, 0o755); err != nil {
			return nil, fmt.Errorf("campaign: incident dir: %w", err)
		}
	}
	return run(o, gen, newRuntimes(gen, o.IncidentDir)), nil
}

// newRuntimes builds one runtime per deck variant. The map is read-only
// after construction, so workers share it.
func newRuntimes(gen *Generator, incidentDir string) map[*Deck]*deckRuntime {
	runtimes := make(map[*Deck]*deckRuntime)
	for _, d := range gen.Decks() {
		runtimes[d] = newDeckRuntime(d, incidentDir)
	}
	return runtimes
}

// run executes the campaign on prepared deck runtimes; o is already
// validated, with Workers set.
func run(o Options, gen *Generator, runtimes map[*Deck]*deckRuntime) *Summary {
	var next atomic.Int64
	accums := make([]*accum, o.Workers)
	var wg sync.WaitGroup
	o.Progress.begin(o.N, o.Workers)
	start := time.Now()
	for w := 0; w < o.Workers; w++ {
		acc := &accum{}
		accums[w] = acc
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				base := next.Add(chunkSize) - chunkSize
				if base >= int64(o.N) {
					return
				}
				end := min(base+chunkSize, int64(o.N))
				for i := base; i < end; i++ {
					sc := gen.Scenario(int(i))
					runOne(sc, runtimes[sc.Deck], o, acc, worker)
				}
			}
		}(w)
	}
	wg.Wait()
	wall := time.Since(start)
	o.Progress.finish()

	s := &Summary{N: o.N, Seed: o.Seed, Workers: o.Workers, Naive: o.Naive, WallNS: wall.Nanoseconds()}
	for _, acc := range accums {
		for k := range s.ByFault {
			s.ByFault[k].add(acc.byFault[k])
		}
		s.FalseAlarms += acc.falseAlarms
		s.DamageMicros += acc.damageMicros
		s.IncidentsFiled += acc.incidentsFiled
		s.OracleErrors += acc.oracleErrors
		s.RunErrors += acc.runErrors
		s.SetupErrors += acc.setupErrors
	}
	if secs := wall.Seconds(); secs > 0 {
		s.ScenariosPerSec = float64(o.N) / secs
	}
	if !o.Naive {
		for _, rt := range runtimes {
			s.SweepMemo.Add(rt.worldSweeps.Stats())
		}
	}
	return s
}

// runOne replays one scenario twice — unprotected against the
// ground-truth world (the oracle) and through the full RABIT stack — and
// classifies the outcome.
func runOne(sc *Scenario, rt *deckRuntime, o Options, acc *accum, worker int) {
	// The oracle replay shares the deck's world-plan cache and sweep memo
	// in pooled mode; the naive baseline re-solves and re-sweeps from
	// scratch, as a one-shot harness would.
	var (
		plans  *kin.PlanCache
		sweeps *world.SweepMemo
	)
	if !o.Naive {
		plans, sweeps = rt.worldPlans, rt.worldSweeps
	}
	oracleUnsafe, micros, detail, oracleErr := runOracle(sc, plans, sweeps)

	var (
		alerted bool
		runErr  error
		filed   int64
		err     error
	)
	if o.Naive {
		alerted, runErr, filed, err = runNaive(sc, o.IncidentDir, oracleUnsafe, detail)
	} else {
		alerted, runErr, filed, err = rt.runPooled(sc, oracleUnsafe, detail)
	}
	if err != nil {
		acc.setupErrors++
		o.Progress.scenarioDone(worker, false, false, false)
		return
	}
	o.Progress.scenarioDone(worker,
		oracleUnsafe && alerted,
		oracleUnsafe && !alerted,
		!oracleUnsafe && alerted && sc.Fault.Kind == FaultNone)

	ks := &acc.byFault[sc.Fault.Kind]
	ks.Scenarios++
	acc.damageMicros += micros
	if oracleErr != nil {
		acc.oracleErrors++
	}
	if runErr != nil {
		acc.runErrors++
	}
	switch {
	case oracleUnsafe && alerted:
		ks.Unsafe++
		ks.Detected++
	case oracleUnsafe:
		ks.Unsafe++
		ks.Missed++
	case alerted && sc.Fault.Kind == FaultNone:
		acc.falseAlarms++
	case alerted:
		ks.BenignAlerts++
	}
	acc.incidentsFiled += filed
}

// campaignWorld applies the campaign motion regime to a freshly built
// environment: exact motion (no repeatability noise), so every replay of
// a scenario — oracle, protected, pooled, naive, any worker — commands
// byte-identical moves, and an optional shared plan cache and sweep memo
// (pooled mode) that memoize those moves and their clean sweeps across
// the deck's scenarios.
func campaignWorld(e *env.Env, plans *kin.PlanCache, sweeps *world.SweepMemo) {
	e.World().SetExactMotion(true)
	if plans != nil {
		e.World().SetMotionPlanCache(plans)
	}
	if sweeps != nil {
		e.World().SetSweepMemo(sweeps)
	}
}

// runOracle replays the scenario with no checker: the interceptor passes
// every command straight to the ground-truth world, and whatever damage
// events accumulate are the scenario's objective verdict.
func runOracle(sc *Scenario, plans *kin.PlanCache, sweeps *world.SweepMemo) (unsafe bool, micros int64, detail string, err error) {
	e, berr := env.Build(sc.Deck.Compiled, env.StageTestbed, int64(sc.Seed))
	if berr != nil {
		return false, 0, "", berr
	}
	campaignWorld(e, plans, sweeps)
	ic := trace.NewInterceptor(nil, e)
	ses := workflow.NewSession(ic, sc.Deck.Compiled)
	ses.Measure = e.MeasureSolubility
	sc.ApplyLocs(ses)
	err = workflow.RunSteps(ses, sc.Steps())
	evs := e.World().Events()
	if len(evs) == 0 {
		return false, 0, "", err
	}
	micros = int64(math.Round(e.World().DamageCost() * 1e6))
	detail = fmt.Sprintf("%s; oracle: %d damage events, first: %s", sc.Fingerprint(), len(evs), evs[0].Description)
	return true, micros, detail, err
}

// finishProtected is the classification tail shared by the pooled and
// naive paths: read the alert verdict and, when the oracle says unsafe
// but the checker stayed silent, freeze the scenario's command window
// into a missed-injection bundle.
func finishProtected(eng *core.Engine, rec *recorder.Recorder, e *env.Env,
	runErr error, oracleUnsafe bool, detail string) (alerted bool, rErr error, filed int64) {
	alerted = len(eng.Alerts()) > 0
	var al *core.Alert
	if runErr != nil && !errors.As(runErr, &al) {
		rErr = runErr
	}
	if oracleUnsafe && !alerted && rec.Dir() != "" {
		rec.FileSnapshot("missed_unsafe_injection", detail, e.Now().Nanoseconds())
		filed = 1
	}
	return alerted, rErr, filed
}

// runPooled replays the scenario through a pooled stack: fresh world,
// reset simulator mirror, re-tagged recorder, rebound engine — and
// everything expensive reused.
func (dr *deckRuntime) runPooled(sc *Scenario, oracleUnsafe bool, detail string) (alerted bool, runErr error, filed int64, err error) {
	st, err := dr.get()
	if err != nil {
		return false, nil, 0, err
	}
	defer dr.put(st)
	e, err := env.Build(dr.deck.Compiled, env.StageTestbed, int64(sc.Seed))
	if err != nil {
		return false, nil, 0, err
	}
	campaignWorld(e, dr.worldPlans, dr.worldSweeps)
	st.sm.Reset()
	st.rec.Reset(fmt.Sprintf("s%07d", sc.Index))
	st.eng.Rebind(e)
	ic := trace.NewInterceptor(st.eng, e)
	ic.SetRecorder(st.rec)
	ses := workflow.NewSession(ic, dr.deck.Compiled)
	ses.Measure = e.MeasureSolubility
	sc.ApplyLocs(ses)
	stepErr := workflow.RunSteps(ses, sc.Steps())
	alerted, runErr, filed = finishProtected(st.eng, st.rec, e, stepErr, oracleUnsafe, detail)
	return alerted, runErr, filed, nil
}

// runNaive pays full per-scenario construction — spec compile, rulebase
// generation, simulator (and its deck BVH), engine — exactly as a
// one-shot rabit.New would. It exists to calibrate what the pool saves.
func runNaive(sc *Scenario, incidentDir string, oracleUnsafe bool, detail string) (alerted bool, runErr error, filed int64, err error) {
	lab, err := config.Compile(sc.Deck.Spec)
	if err != nil {
		return false, nil, 0, err
	}
	custom, err := lab.CustomRules()
	if err != nil {
		return false, nil, 0, err
	}
	rb, err := rules.NewRulebase(lab, rules.Config{
		Generation: rules.GenModified,
		Multiplex:  rules.MultiplexTime,
	}, custom...)
	if err != nil {
		return false, nil, 0, err
	}
	e, err := env.Build(lab, env.StageTestbed, int64(sc.Seed))
	if err != nil {
		return false, nil, 0, err
	}
	campaignWorld(e, nil, nil)
	// A plan-cache miss solves exactly what the cold planner would, so the
	// naive mode's private cache lands on the branches the pooled mode's
	// shared caches replay — the modes must agree scenario-by-scenario,
	// not just in aggregate.
	sm, err := sim.New(lab,
		sim.WithHeldObjectAware(true),
		sim.WithMotionCache(true),
		sim.WithSharedPlanCache(kin.NewPlanCache(planCacheCapacity)))
	if err != nil {
		return false, nil, 0, err
	}
	rec := recorder.New(recorder.Options{
		Depth: stackRecorderDepth,
		Dir:   incidentDir,
		Tag:   fmt.Sprintf("s%07d", sc.Index),
	})
	eng := core.New(rb, e,
		core.WithInitialModel(lab.InitialModelState()),
		core.WithSimulator(sm),
		core.WithRecorder(rec),
		core.WithSpeculation(false))
	eng.Start()
	ic := trace.NewInterceptor(eng, e)
	ic.SetRecorder(rec)
	ses := workflow.NewSession(ic, lab)
	ses.Measure = e.MeasureSolubility
	sc.ApplyLocs(ses)
	stepErr := workflow.RunSteps(ses, sc.Steps())
	alerted, runErr, filed = finishProtected(eng, rec, e, stepErr, oracleUnsafe, detail)
	return alerted, runErr, filed, nil
}
