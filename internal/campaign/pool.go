package campaign

import (
	"sync"

	"repro/internal/core"
	"repro/internal/env"
	"repro/internal/kin"
	"repro/internal/obs/recorder"
	"repro/internal/sim"
	"repro/internal/world"
)

// stackRecorderDepth sizes each pooled flight-recorder ring. Campaign
// scripts are at most a few dozen commands, so a shallow ring holds a
// whole scenario — which is exactly the window a missed-injection bundle
// should freeze.
const stackRecorderDepth = 256

// stack is one reusable engine assembly: engine + extended simulator +
// flight recorder, all bound to one deck variant's rulebase and compiled
// lab. Between scenarios only the cheap state is reset (Simulator.Reset,
// Recorder.Reset, Engine.Rebind); the expensive immutables — compiled
// rules, kinematic profiles, the deck BVH, warm verdict caches — carry
// over. That carry-over is the campaign engine's whole performance story,
// and the pooled-vs-fresh equivalence test is its soundness story.
type stack struct {
	eng *core.Engine
	sm  *sim.Simulator
	rec *recorder.Recorder
}

// planCacheCapacity bounds the per-deck shared plan caches. A deck's
// scripts draw from a finite quantized grammar, so the distinct
// (start configuration, target) pairs number in the low thousands; a
// bound above that working set keeps the LRU from thrashing at 1M
// scenarios while still capping memory.
const planCacheCapacity = 8192

// deckRuntime owns the stack pool for one deck variant. sync.Pool gives
// work-stealing workers lock-free reuse and lets idle stacks be collected
// under memory pressure. The two shared plan caches and the sweep memo
// are the pooled runner's cross-scenario levers: worldPlans memoizes the
// ground-truth worlds' motion plans (oracle and protected replays on the
// same deck re-solve the same quantized moves endlessly), simPlans the
// extended simulator's validation plans, and worldSweeps the worlds'
// collision-free sweeps (each scenario sweeps its moves twice, and
// scenarios on one deck repeat most of them).
type deckRuntime struct {
	deck        *Deck
	incidentDir string
	pool        sync.Pool
	worldPlans  *kin.PlanCache
	simPlans    *kin.PlanCache
	worldSweeps *world.SweepMemo
}

func newDeckRuntime(d *Deck, incidentDir string) *deckRuntime {
	return &deckRuntime{
		deck:        d,
		incidentDir: incidentDir,
		worldPlans:  kin.NewPlanCache(planCacheCapacity),
		simPlans:    kin.NewPlanCache(planCacheCapacity),
		worldSweeps: world.NewSweepMemo(0),
	}
}

func (dr *deckRuntime) get() (*stack, error) {
	if st, _ := dr.pool.Get().(*stack); st != nil {
		return st, nil
	}
	return dr.newStack()
}

func (dr *deckRuntime) put(st *stack) { dr.pool.Put(st) }

// newStack builds a fresh assembly. core.New needs an environment at
// construction time; a throwaway build seeds it and Rebind swaps in the
// real per-scenario world before first use. Speculation is off: campaign
// scripts are short and serial, so lookahead buys nothing and keeping the
// pipeline synchronous makes the quiescence contract of the reset path
// trivially true.
func (dr *deckRuntime) newStack() (*stack, error) {
	boot, err := env.Build(dr.deck.Compiled, env.StageTestbed, 0)
	if err != nil {
		return nil, err
	}
	sm, err := sim.New(dr.deck.Compiled,
		sim.WithHeldObjectAware(true),
		sim.WithMotionCache(true),
		sim.WithSharedPlanCache(dr.simPlans),
		sim.WithArmProfiles(dr.deck.Profiles))
	if err != nil {
		return nil, err
	}
	rec := recorder.New(recorder.Options{Depth: stackRecorderDepth, Dir: dr.incidentDir})
	eng := core.New(dr.deck.Rulebase, boot,
		core.WithInitialModel(dr.deck.Compiled.InitialModelState()),
		core.WithSimulator(sm),
		core.WithRecorder(rec),
		core.WithSpeculation(false))
	return &stack{eng: eng, sm: sm, rec: rec}, nil
}
