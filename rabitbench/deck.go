package main

import (
	"bufio"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	rabit "repro"
	"repro/internal/action"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/env"
	"repro/internal/geom"
	"repro/internal/kin"
	"repro/internal/labs"
	"repro/internal/obs"
	"repro/internal/obs/recorder"
	otrace "repro/internal/obs/trace"
	"repro/internal/rules"
	"repro/internal/sim"
	"repro/internal/state"
	"repro/internal/trace"
	"repro/internal/world"
)

// deck_motion: one script on the testbed deck. Each op is one command:
// a move of a testbed arm to a seeded fresh target, the homing move that
// follows it, the sleep/home pair that hands the deck to the other arm
// (time multiplexing keeps every other arm asleep), and every
// doorEvery targets an open/close pair on the dosing device's door,
// which bumps the simulator's deck epoch. Fresh targets miss the verdict
// cache, so the cold sweep, the deck index, IK and the engine's global
// path do the work.
//
// A target's verdict depends on the moves before it (the motion caches
// carry state across commands), so inputs are screened as whole
// sequences by -make-inputs and committed under inputs/; every pass
// replays one committed sequence from a freshly built System, which
// reproduces the screening run command for command.

const (
	// doorEvery is how many targets pass between door open/close pairs.
	doorEvery = 8
	// armBlock is how many consecutive candidates one arm gets before the
	// deck is handed to the other arm.
	armBlock = 8
	// doorDevice is the testbed device whose door the stream operates.
	doorDevice = "dosing_device"
	// reachSigmas bounds how far (in repeatability standard deviations,
	// plus the IK tolerance) the ground-truth tool may land from its
	// commanded target.
	reachSigmas = 6
)

// deckTarget is one seeded fresh target, in its arm's base frame.
type deckTarget struct {
	Arm    string
	Target geom.Vec3
}

// candidateTargets draws n seeded targets: blocks of armBlock per arm,
// alternating, in an annular shell around each arm base inside its reach.
func candidateTargets(seed int64, n int) []deckTarget {
	rng := rand.New(rand.NewSource(seed))
	q := func(v float64) float64 { return math.Round(v*1e4) / 1e4 }
	out := make([]deckTarget, 0, n)
	for i := 0; i < n; i++ {
		arm := "viperx"
		rMin, rMax, zMin, zMax := 0.25, 0.50, 0.15, 0.40
		if (i/armBlock)%2 == 1 {
			arm = "ned2"
			rMin, rMax, zMin, zMax = 0.18, 0.36, 0.12, 0.32
		}
		r := rMin + rng.Float64()*(rMax-rMin)
		th := rng.Float64() * 2 * math.Pi
		z := zMin + rng.Float64()*(zMax-zMin)
		out = append(out, deckTarget{Arm: arm, Target: geom.V(q(r*math.Cos(th)), q(r*math.Sin(th)), q(z))})
	}
	return out
}

// otherArm names the testbed arm that is not arm.
func otherArm(arm string) string {
	if arm == "viperx" {
		return "ned2"
	}
	return "viperx"
}

// targetCommands returns the commands target k contributes to a stream
// whose previous target belonged to prevArm ("" for the first).
func targetCommands(k int, prevArm string, t deckTarget) []action.Command {
	var out []action.Command
	switch {
	case prevArm == "":
		out = append(out, action.Command{Device: otherArm(t.Arm), Action: action.MoveSleep})
	case prevArm != t.Arm:
		out = append(out,
			action.Command{Device: prevArm, Action: action.MoveSleep},
			action.Command{Device: t.Arm, Action: action.MoveHome})
	}
	out = append(out,
		action.Command{Device: t.Arm, Action: action.MoveRobot, Target: t.Target},
		action.Command{Device: t.Arm, Action: action.MoveHome})
	if (k+1)%doorEvery == 0 {
		out = append(out,
			action.Command{Device: doorDevice, Action: action.OpenDoor},
			action.Command{Device: doorDevice, Action: action.CloseDoor})
	}
	return out
}

// expandStream turns an accepted target list into its command stream.
func expandStream(ts []deckTarget) []action.Command {
	var out []action.Command
	prev := ""
	for k, t := range ts {
		out = append(out, targetCommands(k, prev, t)...)
		prev = t.Arm
	}
	return out
}

// streamPath is where the stream for seed lives.
func streamPath(dir string, seed int64) string {
	return filepath.Join(dir, fmt.Sprintf("deck_motion_seed%02d.txt", seed))
}

// writeStream commits a screened stream: comment lines (the screen
// report), then one "arm x y z" line per accepted target.
func writeStream(path string, targets []deckTarget, report string) error {
	var b strings.Builder
	for _, line := range strings.Split(strings.TrimRight(report, "\n"), "\n") {
		fmt.Fprintf(&b, "# %s\n", line)
	}
	for _, t := range targets {
		fmt.Fprintf(&b, "%s %s %s %s\n", t.Arm,
			strconv.FormatFloat(t.Target.X, 'f', -1, 64),
			strconv.FormatFloat(t.Target.Y, 'f', -1, 64),
			strconv.FormatFloat(t.Target.Z, 'f', -1, 64))
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// readStream loads a committed stream.
func readStream(path string) ([]deckTarget, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []deckTarget
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		txt := strings.TrimSpace(sc.Text())
		if txt == "" || strings.HasPrefix(txt, "#") {
			continue
		}
		fs := strings.Fields(txt)
		if len(fs) != 4 || (fs[0] != "viperx" && fs[0] != "ned2") {
			return nil, fmt.Errorf("%s:%d: want \"arm x y z\"", path, line)
		}
		var v [3]float64
		for i := range v {
			if v[i], err = strconv.ParseFloat(fs[i+1], 64); err != nil {
				return nil, fmt.Errorf("%s:%d: %w", path, line, err)
			}
		}
		out = append(out, deckTarget{Arm: fs[0], Target: geom.V(v[0], v[1], v[2])})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no targets", path)
	}
	return out, nil
}

// inputSeeds is how many screened streams are committed.
const inputSeeds = 8

// loadStreams returns the command streams of every committed input, in
// the order a run replays them: starting at the one the workload seed
// selects. A stream's cost is dominated by its few slowest IK solves and
// differs from another's by up to a fifth, so every run replays all of
// them in turn rather than one.
func loadStreams(dir string, seed int64) ([][]action.Command, error) {
	first := ((seed-1)%inputSeeds + inputSeeds) % inputSeeds
	out := make([][]action.Command, 0, inputSeeds)
	for i := int64(0); i < inputSeeds; i++ {
		p := streamPath(dir, (first+i)%inputSeeds+1)
		ts, err := readStream(p)
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("%w (%s)", errNoInputs, p)
		}
		if err != nil {
			return nil, err
		}
		out = append(out, expandStream(ts))
	}
	return out, nil
}

// deckStack is one freshly built testbed stack the stream replays on.
type deckStack struct {
	lab   *config.Lab
	do    func(action.Command) error
	world *world.World
	eng   *core.Engine
	reg   *obs.Registry
	close func()
}

// newSystemStack builds the stack a user gets: rabit.System with the
// Extended Simulator and every default (tracing, recorder, rule metrics,
// motion caches).
func newSystemStack(noMotionCache bool) (*deckStack, error) {
	sys, err := rabit.NewTestbed(rabit.Options{ExtendedSimulator: true, NoMotionCache: noMotionCache})
	if err != nil {
		return nil, err
	}
	return &deckStack{
		lab:   sys.Lab,
		do:    sys.Interceptor.Do,
		world: sys.Env.World(),
		eng:   sys.Engine,
		reg:   sys.Obs,
		close: func() { _ = sys.Close() }, // no trace file or incident dir: nothing to flush
	}, nil
}

// newTracedStack assembles the same stack as rabit.New from the public
// constructors, with timing wrappers around the engine (trace.Checker),
// the simulator (core.TrajectoryValidator) and the environment
// (core.ScopedEnvironment).
func newTracedStack(log *spanLog) (*deckStack, error) {
	lab, err := config.Compile(labs.TestbedSpec())
	if err != nil {
		return nil, err
	}
	e, err := env.Build(lab, env.StageTestbed, 1)
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry("rabitbench/deck_motion")
	tracer := otrace.NewTracer(otrace.Options{Seed: 1, Obs: reg})
	custom, err := lab.CustomRules()
	if err != nil {
		return nil, err
	}
	rb, err := rules.NewRulebase(lab, rules.Config{Generation: rules.GenModified, Multiplex: rules.MultiplexTime}, custom...)
	if err != nil {
		return nil, err
	}
	sm, err := sim.New(lab,
		sim.WithHeldObjectAware(true),
		sim.WithObserver(reg),
		sim.WithTracer(tracer),
		sim.WithMotionCache(true))
	if err != nil {
		return nil, err
	}
	rec := recorder.New(recorder.Options{Obs: reg})
	tenv := &timedEnv{Env: e, log: log}
	eng := core.New(rb, tenv,
		core.WithInitialModel(lab.InitialModelState()),
		core.WithObserver(reg),
		core.WithSLOs(obs.NewSafetySLOs()),
		core.WithTracer(tracer),
		core.WithRecorder(rec),
		core.WithSimulator(&timedSim{Simulator: sm, log: log}))
	eng.Start()
	ic := trace.NewInterceptor(&timedChecker{eng: eng, log: log}, tenv)
	ic.SetObserver(reg)
	ic.SetRecorder(rec)
	ic.SetTracer(tracer)
	return &deckStack{
		lab: lab,
		do: func(cmd action.Command) error {
			id := log.begin(lIntercept)
			err := ic.Do(cmd)
			log.end(id)
			return err
		},
		world: e.World(),
		eng:   eng,
		reg:   reg,
		close: func() {
			eng.Drain()
			ic.FinishTrace()
		},
	}, nil
}

// timedChecker times the engine's Before and After.
type timedChecker struct {
	eng *core.Engine
	log *spanLog
}

func (c *timedChecker) Before(cmd action.Command) error {
	id := c.log.begin(lBefore)
	defer c.log.end(id)
	return c.eng.Before(cmd)
}

func (c *timedChecker) After(cmd action.Command) error {
	id := c.log.begin(lAfter)
	defer c.log.end(id)
	return c.eng.After(cmd)
}

// timedSim times trajectory validation. It forwards the simulator's
// deck-epoch, provenance, tracing and speculation surfaces, so the
// engine keeps the motion fast path it has on an unwrapped simulator.
type timedSim struct {
	*sim.Simulator
	log *spanLog
}

func (s *timedSim) ValidTrajectory(cmd action.Command, model state.Snapshot) error {
	id := s.log.begin(lTrajectory)
	defer s.log.end(id)
	return s.Simulator.ValidTrajectory(cmd, model)
}

func (s *timedSim) ValidTrajectoryProv(cmd action.Command, model state.Snapshot) (recorder.Verdict, error) {
	id := s.log.begin(lTrajectory)
	defer s.log.end(id)
	return s.Simulator.ValidTrajectoryProv(cmd, model)
}

func (s *timedSim) ValidTrajectoryTraced(cmd action.Command, model state.Snapshot, parent otrace.SpanContext) (recorder.Verdict, error) {
	id := s.log.begin(lTrajectory)
	defer s.log.end(id)
	return s.Simulator.ValidTrajectoryTraced(cmd, model, parent)
}

// timedEnv times execution in the ground-truth world and state fetches.
type timedEnv struct {
	*env.Env
	log *spanLog
}

func (e *timedEnv) Execute(cmd action.Command) error {
	id := e.log.begin(lExecute)
	defer e.log.end(id)
	return e.Env.Execute(cmd)
}

func (e *timedEnv) FetchState() state.Snapshot {
	id := e.log.begin(lFetch)
	defer e.log.end(id)
	return e.Env.FetchState()
}

func (e *timedEnv) FetchStateScoped(ids []string) state.Snapshot {
	id := e.log.begin(lFetch)
	defer e.log.end(id)
	return e.Env.FetchStateScoped(ids)
}

// reachError reports whether a completed move left the ground-truth tool
// outside its target's repeatability envelope.
func reachError(lab *config.Lab, w *world.World, cmd action.Command) error {
	if cmd.Action != action.MoveRobot {
		return nil
	}
	a, ok := w.Arm(cmd.Device)
	if !ok {
		return fmt.Errorf("no arm %q in the world", cmd.Device)
	}
	tcp, err := a.TCP()
	if err != nil {
		return err
	}
	var base geom.Vec3
	for _, as := range lab.Spec.Arms {
		if as.ID == cmd.Device {
			base = geom.V(as.Base.X, as.Base.Y, as.Base.Z)
		}
	}
	want := cmd.Target.Add(base)
	tol := reachSigmas*a.Profile.Chain.Repeatability + kin.DefaultIKOptions().Tol
	if d := tcp.Dist(want); d > tol {
		return fmt.Errorf("%s ended %.4f m from its target %v (tolerance %.4f m)", cmd, d, want, tol)
	}
	return nil
}

// checkDeckPass is the output check after one pass: no alert raised, no
// damage in the ground-truth world, and every move reached its target
// (reach errors are collected during the pass).
func checkDeckPass(alerts []core.Alert, damage []world.Event, reach []error) error {
	if len(alerts) > 0 {
		return fmt.Errorf("deck_motion: %d alerts, first: %s", len(alerts), alerts[0].Error())
	}
	if len(damage) > 0 {
		return fmt.Errorf("deck_motion: %d damage events in the world, first: %s", len(damage), damage[0])
	}
	if len(reach) > 0 {
		return fmt.Errorf("deck_motion: %d moves missed their target, first: %v", len(reach), reach[0])
	}
	return nil
}

// deckPass replays one stream on a fresh stack, appending each command's
// latency to lat. It returns the commands completed, whether a command
// failed, and the pass's output check.
func deckPass(st *deckStack, cmds []action.Command, lat *[]time.Duration) (done int64, failed bool, check error) {
	var reach []error
	for _, cmd := range cmds {
		t0 := time.Now()
		err := st.do(cmd)
		*lat = append(*lat, time.Since(t0))
		done++
		if err != nil {
			return done, true, fmt.Errorf("deck_motion: %s: %w", cmd, err)
		}
		if rerr := reachError(st.lab, st.world, cmd); rerr != nil {
			reach = append(reach, rerr)
		}
	}
	return done, false, checkDeckPass(st.eng.Alerts(), st.world.Events(), reach)
}

// deckRun replays the streams pass after pass, each pass on a freshly
// built stack, until the measured time is spent. Set-up (the stack build) is
// timed apart from the passes.
type deckRun struct {
	costs  costs
	lat    []time.Duration
	setups []time.Duration
	failed int64
	hits   counters
	heap   float64
}

// counters are the cache and sweep counters the per-layer metrics use.
type counters struct {
	planHits, planMisses       int64
	verdictHits, verdictMisses int64
	candidates, checks         int64
	pruned, kept               int64
}

func (c *counters) add(reg *obs.Registry) {
	c.planHits += reg.Counter(obs.CounterPlanCacheHits).Value()
	c.planMisses += reg.Counter(obs.CounterPlanCacheMisses).Value()
	c.verdictHits += reg.Counter(obs.CounterVerdictCacheHits).Value()
	c.verdictMisses += reg.Counter(obs.CounterVerdictCacheMisses).Value()
	c.candidates += reg.Counter(obs.CounterSimIndexCandidates).Value()
	c.checks += reg.Counter(obs.CounterSimChecks).Value()
	c.pruned += reg.Counter(obs.CounterSimBroadphasePruned).Value()
	c.kept += reg.Counter(obs.CounterSimBroadphaseKept).Value()
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func (d *deckRun) replay(streams [][]action.Command, measure time.Duration, build func() (*deckStack, error), res *result) error {
	deadline := time.Now().Add(measure)
	for time.Now().Before(deadline) {
		t0 := time.Now()
		st, err := build()
		if err != nil {
			return err
		}
		pass := len(d.setups)
		d.setups = append(d.setups, time.Since(t0))
		a := sampleProc()
		done, failed, check := deckPass(st, streams[pass%len(streams)], &d.lat)
		b := sampleProc()
		d.costs.add(a, b, done, 0)
		d.hits.add(st.reg)
		if !time.Now().Before(deadline) {
			d.heap = heapLiveMB(st) // the final stack, still open
		}
		st.close()
		if failed {
			d.failed++
		}
		if check != nil {
			res.fail(check)
			return nil
		}
	}
	return nil
}

func runDeckMotion(cfg runConfig) (*result, error) {
	streams, err := loadStreams(inputDir(), cfg.seed)
	if err != nil {
		return nil, err
	}
	res := newResult()
	if !cfg.traced {
		var d deckRun
		if err := d.replay(streams, cfg.measure, func() (*deckStack, error) { return newSystemStack(false) }, res); err != nil {
			return nil, err
		}
		res.Attempted, res.Failed = d.costs.ops, d.failed
		d.costs.report(res)
		res.set("setup_s", medianSeconds(d.setups), "s")
		reportLatency(res, d.lat)
		res.set("heap_live_mb", d.heap, "MiB")
		return res, nil
	}

	// Traced run: an untraced half for the overhead reference, then the
	// traced half on the assembled stack.
	var plain deckRun
	if err := plain.replay(streams, cfg.measure/2, func() (*deckStack, error) { return newSystemStack(false) }, res); err != nil {
		return nil, err
	}
	// Each pass builds a fresh stack with its own span log.
	var logs []*spanLog
	var tr deckRun
	build := func() (*deckStack, error) {
		log := newSpanLog()
		logs = append(logs, log)
		return newTracedStack(log)
	}
	if err := tr.replay(streams, cfg.measure/2, build, res); err != nil {
		return nil, err
	}
	res.Attempted = plain.costs.ops + tr.costs.ops
	res.Failed = plain.failed + tr.failed
	merged := mergeLogs(logs)
	reportDeckLayers(res, merged, tr.hits)
	reportOverhead(res, &plain.costs, &tr.costs)
	return res, nil
}

// mergeLogs concatenates span logs, re-basing parent indices.
func mergeLogs(logs []*spanLog) *spanLog {
	out := &spanLog{}
	for _, l := range logs {
		off := int32(len(out.spans))
		for _, s := range l.spans {
			if s.parent >= 0 {
				s.parent += off
			}
			out.spans = append(out.spans, s)
		}
	}
	return out
}

// reportDeckLayers reduces the deck_motion spans to per-layer metrics.
func reportDeckLayers(res *result, l *spanLog, c counters) {
	p := func(ds []time.Duration, q float64) float64 { return durQuantileUS(ds, q) }
	res.set("trace.intercept_p50_us", p(l.durations(lIntercept), 0.5), "us")
	res.set("core.check_p50_us", p(l.selfTimes(lIntercept, lExecute), 0.5), "us")
	res.set("core.before_p50_us", p(l.selfTimes(lBefore, lTrajectory), 0.5), "us")
	res.set("core.after_p50_us", p(l.selfTimes(lAfter, lFetch), 0.5), "us")
	traj := l.durations(lTrajectory)
	res.set("sim.trajectory_p50_us", p(traj, 0.5), "us")
	res.set("sim.trajectory_p90_us", p(traj, 0.9), "us")
	exec := l.durations(lExecute)
	res.set("env.execute_p50_us", p(exec, 0.5), "us")
	res.set("env.execute_p90_us", p(exec, 0.9), "us")
	res.set("env.fetch_p50_us", p(l.durations(lFetch), 0.5), "us")
	res.set("kin.plan_hit_ratio", ratio(c.planHits, c.planHits+c.planMisses), "ratio")
	res.set("sim.verdict_hit_ratio", ratio(c.verdictHits, c.verdictHits+c.verdictMisses), "ratio")
	res.set("sim.candidates_per_check", ratio(c.candidates, c.checks), "count")
	res.set("sim.pruned_ratio", ratio(c.pruned, c.pruned+c.kept), "ratio")
}

// reportOverhead records the tracing overhead: traced minus untraced
// throughput of the same workload in the same process.
func reportOverhead(res *result, plain, traced *costs) {
	u, t := plain.rate(), traced.rate()
	res.set("bench.untraced_ops_per_s", u, "op/s")
	res.set("bench.traced_ops_per_s", t, "op/s")
	res.set("bench.trace_overhead_ops_per_s", t-u, "op/s")
}
