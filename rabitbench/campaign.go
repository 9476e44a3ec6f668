package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/env"
	"repro/internal/kin"
	"repro/internal/obs"
	"repro/internal/obs/recorder"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workflow"
)

// campaign: campaign.Run at campWorkers workers over seeded scenarios
// that span all three labs' jittered deck variants. Each op is one
// scenario, from generation to classification. Each round is one Run of
// campN scenarios under its own master seed (derived from the workload
// seed and the round), so the deck plan caches start cold each round and
// are hot for most of it.

const (
	campN       = 320
	campWorkers = 2
	// campNaiveN is the subset pooled results are compared against naive
	// per-scenario construction on.
	campNaiveN = 16
	// campStackDepth matches the runner's pooled recorder ring.
	campStackDepth = 256
	// campPlanCapacity matches the runner's per-deck plan caches.
	campPlanCapacity = 8192
)

// roundSeed is round r's master seed.
func roundSeed(seed int64, r int) uint64 { return uint64(seed)*1000 + uint64(r) }

// tally is the benchmark's own count of one round: scenarios per fault
// kind from Generator.Scenario, and unsafe scenarios per fault kind from
// its own unprotected world replays.
type tally struct {
	scenarios [4]int64
	unsafe    [4]int64
}

// oracleReplay runs a scenario with no checker against a fresh
// ground-truth world (exact motion, as the runner's regime) and reports
// whether the world recorded damage.
func oracleReplay(sc *campaign.Scenario, plans *kin.PlanCache) bool {
	e, err := env.Build(sc.Deck.Compiled, env.StageTestbed, int64(sc.Seed))
	if err != nil {
		return false
	}
	e.World().SetExactMotion(true)
	if plans != nil {
		e.World().SetMotionPlanCache(plans)
	}
	ses := workflow.NewSession(trace.NewInterceptor(nil, e), sc.Deck.Compiled)
	ses.Measure = e.MeasureSolubility
	sc.ApplyLocs(ses)
	_ = workflow.RunSteps(ses, sc.Steps()) // a halted replay is judged by its damage, below
	return len(e.World().Events()) > 0
}

// tallyRound generates and replays a round's scenarios on campWorkers
// goroutines, apart from the runner.
func tallyRound(seed uint64, n int) (tally, error) {
	gen, err := campaign.NewGenerator(seed, 0)
	if err != nil {
		return tally{}, err
	}
	// The replays share one plan cache per deck, as the runner's oracle
	// does; these caches are the benchmark's own.
	plans := map[*campaign.Deck]*kin.PlanCache{}
	for _, d := range gen.Decks() {
		plans[d] = exactPlans()
	}
	var next atomic.Int64
	parts := make([]tally, campWorkers)
	var wg sync.WaitGroup
	for w := range parts {
		wg.Add(1)
		go func(t *tally) {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				sc := gen.Scenario(i)
				t.scenarios[sc.Fault.Kind]++
				if oracleReplay(sc, plans[sc.Deck]) {
					t.unsafe[sc.Fault.Kind]++
				}
			}
		}(&parts[w])
	}
	wg.Wait()
	var out tally
	for _, p := range parts {
		for k := range out.scenarios {
			out.scenarios[k] += p.scenarios[k]
			out.unsafe[k] += p.unsafe[k]
		}
	}
	return out, nil
}

// checkCampaign compares a Run summary with the benchmark's tally.
func checkCampaign(s *campaign.Summary, t tally) error {
	for k, ks := range s.ByFault {
		kind := campaign.FaultKind(k)
		if ks.Scenarios != t.scenarios[k] {
			return fmt.Errorf("campaign: %s: %d scenarios, generator tally %d", kind, ks.Scenarios, t.scenarios[k])
		}
		if ks.Unsafe != t.unsafe[k] {
			return fmt.Errorf("campaign: %s: %d unsafe, own oracle replays %d", kind, ks.Unsafe, t.unsafe[k])
		}
		if ks.Detected+ks.Missed != ks.Unsafe {
			return fmt.Errorf("campaign: %s: detected %d + missed %d != unsafe %d", kind, ks.Detected, ks.Missed, ks.Unsafe)
		}
	}
	if s.FalseAlarms != 0 {
		return fmt.Errorf("campaign: %d false alarms", s.FalseAlarms)
	}
	if s.SetupErrors != 0 {
		return fmt.Errorf("campaign: %d setup errors", s.SetupErrors)
	}
	return nil
}

// campRound is one measured Run.
type campRound struct {
	seed    uint64
	summary *campaign.Summary
}

// campRuns calls campaign.Run round after round until the rounds have
// taken the measured time, and calls between, when it is not nil, after
// each round, outside the measured time. Run's own set-up (deck
// generation) is its wall time minus the progress tracker's elapsed time;
// it is excluded from the slice's wall time, which otherwise includes
// everything Run does. Run gives no handle on the CPU time of its set-up,
// so the slice's CPU time includes it.
func campRuns(seed int64, measure time.Duration, c *costs, setups *[]time.Duration, between func() error) ([]campRound, error) {
	var rounds []campRound
	var spent time.Duration
	for r := 0; spent < measure; r++ {
		p := campaign.NewProgress(obs.NewRegistry("rabitbench/campaign"))
		rs := roundSeed(seed, r)
		a := sampleProc()
		s, err := campaign.Run(campaign.Options{N: campN, Seed: rs, Workers: campWorkers, Progress: p})
		b := sampleProc()
		if err != nil {
			return nil, err
		}
		setup := b.wall.Sub(a.wall) - time.Duration(p.Snapshot().ElapsedSeconds*float64(time.Second))
		*setups = append(*setups, setup)
		c.add(a, b, campN, setup)
		spent += b.wall.Sub(a.wall)
		rounds = append(rounds, campRound{seed: rs, summary: s})
		if between != nil {
			if err := between(); err != nil {
				return nil, err
			}
		}
	}
	return rounds, nil
}

// checkRounds runs the output checks of every round, and compares the
// pooled runner with naive per-scenario construction on a subset.
func checkRounds(res *result, rounds []campRound) error {
	var runErrors int64
	for _, r := range rounds {
		t, err := tallyRound(r.seed, campN)
		if err != nil {
			return err
		}
		res.fail(checkCampaign(r.summary, t))
		runErrors += r.summary.RunErrors
	}
	fmt.Printf("# campaign rounds=%d run_errors=%d (outcomes, not failed ops)\n", len(rounds), runErrors)
	seed := rounds[0].seed
	pooled, err := campaign.Run(campaign.Options{N: campNaiveN, Seed: seed, Workers: campWorkers})
	if err != nil {
		return err
	}
	naive, err := campaign.Run(campaign.Options{N: campNaiveN, Seed: seed, Workers: campWorkers, Naive: true})
	if err != nil {
		return err
	}
	res.fail(checkPooledNaive(pooled, naive))
	return nil
}

// checkPooledNaive requires pooled and naive runs of the same scenarios
// to classify them identically.
func checkPooledNaive(pooled, naive *campaign.Summary) error {
	p, n := *pooled, *naive
	p.Naive, n.Naive = false, false
	if p.Counts() != n.Counts() {
		return fmt.Errorf("campaign: pooled and naive runs differ:\npooled: %s\nnaive:  %s", p.Counts(), n.Counts())
	}
	return nil
}

func runCampaign(cfg runConfig) (*result, error) {
	res := newResult()
	var c costs
	var setups []time.Duration
	if cfg.traced {
		return runCampaignTraced(cfg, res)
	}
	lp, err := newLatencyPass(roundSeed(cfg.seed, 0))
	if err != nil {
		return nil, err
	}
	rounds, err := campRuns(cfg.seed, cfg.measure, &c, &setups, func() error { return lp.run(latChunk) })
	if err != nil {
		return nil, err
	}
	if err := lp.run(latN); err != nil {
		return nil, err
	}
	lat, heap := lp.lat, lp.heapLiveMB()
	// The pass ran round 0's scenarios, so it must classify them as Run did.
	res.fail(sameOutcomes(&lp.w.sum, rounds[0].summary))
	for _, r := range rounds {
		res.Failed += r.summary.SetupErrors
	}
	res.Attempted = c.ops
	if err := checkRounds(res, rounds); err != nil {
		return nil, err
	}
	c.report(res)
	res.set("setup_s", medianSeconds(setups), "s")
	reportLatency(res, lat)
	res.set("heap_live_mb", heap, "MiB")
	return res, nil
}

// The traced run re-assembles the pooled runner from the public
// constructors it uses, timing each call: deck generation, scenario
// generation, the unprotected oracle replay, the per-scenario stack
// reset and the protected replay.

// tStack is one pooled engine assembly, as the runner builds it.
type tStack struct {
	eng *core.Engine
	sm  *sim.Simulator
	rec *recorder.Recorder
}

// tDeck is one deck variant's shared plan caches.
type tDeck struct {
	deck       *campaign.Deck
	worldPlans *kin.PlanCache
	simPlans   *kin.PlanCache
}

func exactPlans() *kin.PlanCache {
	pc := kin.NewPlanCache(campPlanCapacity)
	pc.SetWarmStart(false)
	return pc
}

func newTStack(d *tDeck) (*tStack, error) {
	boot, err := env.Build(d.deck.Compiled, env.StageTestbed, 0)
	if err != nil {
		return nil, err
	}
	sm, err := sim.New(d.deck.Compiled,
		sim.WithHeldObjectAware(true),
		sim.WithMotionCache(true),
		sim.WithSharedPlanCache(d.simPlans),
		sim.WithArmProfiles(d.deck.Profiles))
	if err != nil {
		return nil, err
	}
	rec := recorder.New(recorder.Options{Depth: campStackDepth})
	eng := core.New(d.deck.Rulebase, boot,
		core.WithInitialModel(d.deck.Compiled.InitialModelState()),
		core.WithSimulator(sm),
		core.WithRecorder(rec),
		core.WithSpeculation(false))
	return &tStack{eng: eng, sm: sm, rec: rec}, nil
}

// tWorker is one traced worker: its span log, its stacks (one per deck,
// reused across that deck's scenarios) and its classification tally.
type tWorker struct {
	log    *spanLog
	stacks map[*campaign.Deck]*tStack
	sum    campaign.Summary
	err    error
}

// scenario runs and classifies one scenario as the pooled runner does.
func (w *tWorker) scenario(gen *campaign.Generator, decks map[*campaign.Deck]*tDeck, i int) error {
	id := w.log.begin(lGenerate)
	sc := gen.Scenario(i)
	w.log.end(id)
	d := decks[sc.Deck]

	id = w.log.begin(lOracle)
	unsafe := oracleReplay(sc, d.worldPlans)
	w.log.end(id)

	st := w.stacks[sc.Deck]
	if st == nil {
		var err error
		if st, err = newTStack(d); err != nil {
			return err
		}
		w.stacks[sc.Deck] = st
	}
	id = w.log.begin(lReset)
	e, err := env.Build(d.deck.Compiled, env.StageTestbed, int64(sc.Seed))
	if err != nil {
		w.log.end(id)
		return err
	}
	e.World().SetExactMotion(true)
	e.World().SetMotionPlanCache(d.worldPlans)
	st.sm.Reset()
	st.rec.Reset(fmt.Sprintf("s%07d", sc.Index))
	st.eng.Rebind(e)
	w.log.end(id)

	id = w.log.begin(lProtected)
	ic := trace.NewInterceptor(st.eng, e)
	ic.SetRecorder(st.rec)
	ses := workflow.NewSession(ic, d.deck.Compiled)
	ses.Measure = e.MeasureSolubility
	sc.ApplyLocs(ses)
	stepErr := workflow.RunSteps(ses, sc.Steps())
	w.log.end(id)

	alerted := len(st.eng.Alerts()) > 0
	var al *core.Alert
	if stepErr != nil && !errors.As(stepErr, &al) {
		w.sum.RunErrors++
	}
	ks := &w.sum.ByFault[sc.Fault.Kind]
	ks.Scenarios++
	switch {
	case unsafe && alerted:
		ks.Unsafe++
		ks.Detected++
	case unsafe:
		ks.Unsafe++
		ks.Missed++
	case alerted && sc.Fault.Kind == campaign.FaultNone:
		w.sum.FalseAlarms++
	case alerted:
		ks.BenignAlerts++
	}
	return nil
}

// tracedRound runs one traced round and returns its summary counts, its
// span logs and its decks (for the plan-cache ratios).
func tracedRound(seed uint64, deckBuild *[]time.Duration) (*campaign.Summary, []*spanLog, map[*campaign.Deck]*tDeck, error) {
	t0 := time.Now()
	gen, err := campaign.NewGenerator(seed, 0)
	if err != nil {
		return nil, nil, nil, err
	}
	*deckBuild = append(*deckBuild, time.Since(t0))
	decks := map[*campaign.Deck]*tDeck{}
	for _, d := range gen.Decks() {
		decks[d] = &tDeck{deck: d, worldPlans: exactPlans(), simPlans: exactPlans()}
	}
	var next atomic.Int64
	workers := make([]*tWorker, campWorkers)
	var wg sync.WaitGroup
	for k := range workers {
		w := &tWorker{log: newSpanLog(), stacks: map[*campaign.Deck]*tStack{}}
		workers[k] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < campN; i = int(next.Add(1) - 1) {
				if err := w.scenario(gen, decks, i); err != nil {
					w.err = err
					return
				}
			}
		}()
	}
	wg.Wait()
	s := &campaign.Summary{N: campN, Seed: seed}
	var logs []*spanLog
	for _, w := range workers {
		if w.err != nil {
			return nil, nil, nil, w.err
		}
		for k := range s.ByFault {
			b := &s.ByFault[k]
			o := w.sum.ByFault[k]
			b.Scenarios += o.Scenarios
			b.Unsafe += o.Unsafe
			b.Detected += o.Detected
			b.Missed += o.Missed
			b.BenignAlerts += o.BenignAlerts
		}
		s.FalseAlarms += w.sum.FalseAlarms
		s.RunErrors += w.sum.RunErrors
		logs = append(logs, w.log)
	}
	return s, logs, decks, nil
}

const (
	// latN is how many scenarios the latency pass times.
	latN = campN
	// latChunk is how many of them run after each measured round.
	latChunk = campN / 4
)

// latencyPass measures per-scenario latency, which campaign.Run hides,
// in a pass that is not counted: one worker of the traced re-assembly
// runs the first latN scenarios of round 0's generator one after another
// on one goroutine, each timed from generation to classification. The pass runs in chunks
// between the measured rounds, so a slow stretch of the host weighs on it
// no more than on the rounds.
type latencyPass struct {
	gen   *campaign.Generator
	decks map[*campaign.Deck]*tDeck
	w     *tWorker
	lat   []time.Duration
}

func newLatencyPass(seed uint64) (*latencyPass, error) {
	gen, err := campaign.NewGenerator(seed, 0)
	if err != nil {
		return nil, err
	}
	p := &latencyPass{
		gen:   gen,
		decks: map[*campaign.Deck]*tDeck{},
		w:     &tWorker{log: newSpanLog(), stacks: map[*campaign.Deck]*tStack{}},
		lat:   make([]time.Duration, 0, latN),
	}
	for _, d := range gen.Decks() {
		p.decks[d] = &tDeck{deck: d, worldPlans: exactPlans(), simPlans: exactPlans()}
	}
	return p, nil
}

// run times the pass's next n scenarios, up to latN in all.
func (p *latencyPass) run(n int) error {
	for end := min(len(p.lat)+n, latN); len(p.lat) < end; {
		t0 := time.Now()
		if err := p.w.scenario(p.gen, p.decks, len(p.lat)); err != nil {
			return err
		}
		p.lat = append(p.lat, time.Since(t0))
	}
	return nil
}

// heapLiveMB is the live heap with the pass's decks, plan caches and one
// pooled stack per deck (simulator, recorder ring, engine) still held:
// what a runner worker holds at the end of a round.
func (p *latencyPass) heapLiveMB() float64 {
	p.w.log = nil // the spans are the benchmark's, not the workload's
	return heapLiveMB(p.gen, p.decks, p.w)
}

// sameOutcomes compares the classification counts of two summaries.
func sameOutcomes(a, b *campaign.Summary) error {
	if a.ByFault != b.ByFault || a.FalseAlarms != b.FalseAlarms || a.RunErrors != b.RunErrors {
		return fmt.Errorf("campaign: re-assembled runner and campaign.Run disagree:\nre-assembly: %s\nRun:         %s", a.Counts(), b.Counts())
	}
	return nil
}

func runCampaignTraced(cfg runConfig, res *result) (*result, error) {
	var plain costs
	var setups []time.Duration
	rounds, err := campRuns(cfg.seed, cfg.measure/2, &plain, &setups, nil)
	if err != nil {
		return nil, err
	}
	var tr costs
	var logs []*spanLog
	var deckBuild []time.Duration
	var worldHits, worldMisses, simHits, simMisses int64
	deadline := time.Now().Add(cfg.measure / 2)
	for r := 0; time.Now().Before(deadline); r++ {
		a := sampleProc()
		s, ls, decks, err := tracedRound(roundSeed(cfg.seed, r), &deckBuild)
		b := sampleProc()
		if err != nil {
			return nil, err
		}
		tr.add(a, b, campN, deckBuild[len(deckBuild)-1])
		logs = append(logs, ls...)
		if r < len(rounds) {
			res.fail(sameOutcomes(s, rounds[r].summary))
		} else {
			t, err := tallyRound(s.Seed, campN)
			if err != nil {
				return nil, err
			}
			res.fail(checkCampaign(s, t))
		}
		for _, d := range decks {
			ws, ss := d.worldPlans.Stats(), d.simPlans.Stats()
			worldHits += ws.Hits
			worldMisses += ws.Misses
			simHits += ss.Hits
			simMisses += ss.Misses
		}
	}
	res.Attempted = plain.ops + tr.ops
	for _, r := range rounds {
		res.Failed += r.summary.SetupErrors
	}
	if err := checkRounds(res, rounds); err != nil {
		return nil, err
	}
	l := mergeLogs(logs)
	res.set("campaign.deck_build_s", medianSeconds(deckBuild), "s")
	gen := l.durations(lGenerate)
	var gsum time.Duration
	for _, d := range gen {
		gsum += d
	}
	res.set("campaign.generate_us", float64(gsum.Nanoseconds())/1e3/float64(max(len(gen), 1)), "us")
	res.set("world.oracle_replay_p50_us", durQuantileUS(l.durations(lOracle), 0.5), "us")
	res.set("core.protected_replay_p50_us", durQuantileUS(l.durations(lProtected), 0.5), "us")
	res.set("campaign.stack_reset_p50_us", durQuantileUS(l.durations(lReset), 0.5), "us")
	res.set("kin.world_plan_hit_ratio", ratio(worldHits, worldHits+worldMisses), "ratio")
	res.set("kin.sim_plan_hit_ratio", ratio(simHits, simHits+simMisses), "ratio")
	reportOverhead(res, &plain, &tr)
	return res, nil
}
