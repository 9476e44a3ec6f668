package eval

import (
	"fmt"
	"time"

	"repro/internal/action"
	"repro/internal/env"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/rules"
)

// The motion benchmark measures the PR's motion-planning fast path on a
// motion-heavy replay: repeated station-visit cycles on the testbed's
// viperx arm, with periodic door toggles churning the deck epoch the way
// a real screen's open/close/dispense cadence does. Three configurations
// replay the identical command stream:
//
//	no-cache    every check solves IK and sweeps the trajectory from
//	            scratch (the pre-PR behaviour)
//	cache       plan + verdict caches on, no speculative lookahead
//	cache+spec  caches on, and each command hints its successor so the
//	            lookahead worker pre-validates it off the critical path
//
// The headline is the before-check latency (validate + trajectory p50):
// on repeat visits the cached modes serve verdicts without touching IK
// or the sweep, and speculation removes even the first-visit miss from
// the critical path.

// Motion mode names.
const (
	MotionModeCold   = "no-cache"
	MotionModeCached = "cache"
	MotionModeSpec   = "cache+spec"
)

// MotionOptions configures the motion-heavy replay benchmark.
type MotionOptions struct {
	// Visits is how many station-visit cycles the script performs; each
	// cycle is four stations plus a homing move, and every fourth cycle
	// opens and closes the dosing-device door (a deck-epoch bump).
	Visits int
	// Seed drives stochastic fidelity noise.
	Seed int64
}

// MotionResult is one mode's measurement.
type MotionResult struct {
	Mode string
	// Commands is the total replayed command count; MotionCommands is
	// the robot-motion subset (the commands the fast path serves).
	Commands       int
	MotionCommands int
	Wall           time.Duration
	// Validate and Trajectory are the before-check stage histograms —
	// the latency the fast path exists to cut.
	Validate   StageLatency
	Trajectory StageLatency
	// Plan-cache counters (IK layer).
	PlanHits   int64
	PlanMisses int64
	// Verdict-cache counters (simulator layer).
	VerdictHits   int64
	VerdictMisses int64
	EpochBumps    int64
	// Speculation counters (engine layer). SpeculationHits is how many
	// on-path checks were answered by a verdict the lookahead worker had
	// already computed.
	Speculations        int64
	SpeculationHits     int64
	SpeculationsDropped int64
}

// CheckP50 is the mode's median before-check latency: validate p50 plus
// trajectory p50, the two stages a command pays before it may execute.
func (r MotionResult) CheckP50() time.Duration {
	return r.Validate.P50 + r.Trajectory.P50
}

// motionStations are free-space viperx waypoints whose verdicts do not
// depend on the dosing-device door, so repeat visits produce identical
// plans and verdicts across epochs.
var motionStations = []geom.Vec3{
	geom.V(0.32, 0.22, 0.25),
	geom.V(0.15, 0.30, 0.25),
	geom.V(0.63, -0.38, 0.30),
	geom.V(0.45, 0.10, 0.30),
}

// motionScript builds the replayed command stream: visits cycles over
// the stations plus a homing move, with a door open/close pair every
// fourth cycle so the deck epoch churns mid-run (the invalidation cost
// is part of what the benchmark measures, not an artifact it avoids).
func motionScript(visits int) []action.Command {
	out := make([]action.Command, 0, visits*(len(motionStations)+1)+visits/2+1)
	// Time multiplexing lets viperx move only while ned2 is in its sleep
	// pose, so the replay parks it first.
	out = append(out, action.Command{Device: "ned2", Action: action.MoveSleep})
	for v := 0; v < visits; v++ {
		if v%4 == 1 {
			out = append(out,
				action.Command{Device: "dosing_device", Action: action.OpenDoor},
				action.Command{Device: "dosing_device", Action: action.CloseDoor},
			)
		}
		for _, t := range motionStations {
			out = append(out, action.Command{Device: "viperx", Action: action.MoveRobot, Target: t})
		}
		out = append(out, action.Command{Device: "viperx", Action: action.MoveHome})
	}
	return out
}

// Motion runs the benchmark's three configurations over the identical
// command stream and returns one row per mode.
func Motion(o MotionOptions) ([]MotionResult, error) {
	if o.Visits <= 0 {
		o.Visits = 12
	}
	var out []MotionResult
	for _, mode := range []string{MotionModeCold, MotionModeCached, MotionModeSpec} {
		r, err := runMotion(mode, o)
		if err != nil {
			return nil, err
		}
		out = append(out, *r)
	}
	return out, nil
}

func runMotion(mode string, o MotionOptions) (*MotionResult, error) {
	opt := Options{
		Stage:     env.StageTestbed,
		Rules:     rules.Config{Generation: rules.GenModified, Multiplex: rules.MultiplexTime},
		WithRABIT: true,
		WithSim:   true,
		Seed:      o.Seed,
	}
	switch mode {
	case MotionModeCold:
		opt.NoMotionCache = true
	case MotionModeCached:
		opt.NoSpeculation = true
	}
	s, err := NewTestbedSetup(opt)
	if err != nil {
		return nil, fmt.Errorf("eval: motion %s: %w", mode, err)
	}
	defer obs.Unregister(s.Obs)

	cmds := motionScript(o.Visits)
	spec := mode == MotionModeSpec
	start := time.Now()
	for i, cmd := range cmds {
		var err error
		if spec && i+1 < len(cmds) {
			err = s.Interceptor.DoLookahead(cmd, cmds[i+1])
		} else {
			err = s.Interceptor.Do(cmd)
		}
		if err != nil {
			return nil, fmt.Errorf("eval: motion %s: %s: %w", mode, cmd, err)
		}
		if spec {
			// On hardware the arm's travel time dwarfs the lookahead; the
			// unpaced replay grants the worker that window explicitly, so
			// the measured on-path checks see exactly what a paced run
			// would: the verdict already computed.
			s.Engine.WaitSpeculation()
		}
	}
	wall := time.Since(start)
	if a := s.Engine.Stopped(); a != nil {
		return nil, fmt.Errorf("eval: motion %s: unexpected alert: %s", mode, a.Error())
	}

	motion := 0
	for _, cmd := range cmds {
		if cmd.Action.IsRobotMotion() {
			motion++
		}
	}
	return &MotionResult{
		Mode:                mode,
		Commands:            len(cmds),
		MotionCommands:      motion,
		Wall:                wall,
		Validate:            stageLatency(s.Obs, obs.StageValidate),
		Trajectory:          stageLatency(s.Obs, obs.StageTrajectory),
		PlanHits:            s.Obs.Counter(obs.CounterPlanCacheHits).Value(),
		PlanMisses:          s.Obs.Counter(obs.CounterPlanCacheMisses).Value(),
		VerdictHits:         s.Obs.Counter(obs.CounterVerdictCacheHits).Value(),
		VerdictMisses:       s.Obs.Counter(obs.CounterVerdictCacheMisses).Value(),
		EpochBumps:          s.Obs.Counter(obs.CounterDeckEpochBumps).Value(),
		Speculations:        s.Obs.Counter(obs.CounterSpeculations).Value(),
		SpeculationHits:     s.Obs.Gauge(obs.GaugeSpeculationHits).Value(),
		SpeculationsDropped: s.Obs.Counter(obs.CounterSpeculationsDropped).Value(),
	}, nil
}

// MotionSpeedup returns the no-cache over cache+spec ratio of median
// before-check latency (validate + trajectory p50), or 0 if either row
// is missing.
func MotionSpeedup(rows []MotionResult) float64 {
	var cold, spec time.Duration
	for _, r := range rows {
		switch r.Mode {
		case MotionModeCold:
			cold = r.CheckP50()
		case MotionModeSpec:
			spec = r.CheckP50()
		}
	}
	if cold <= 0 {
		return 0
	}
	if spec < time.Nanosecond {
		spec = time.Nanosecond
	}
	return float64(cold) / float64(spec)
}

// RenderMotion prints the benchmark rows with cache and speculation
// counters alongside the stage latencies.
func RenderMotion(rows []MotionResult) string {
	out := fmt.Sprintf("%-12s %9s %10s %13s %12s %12s %11s %13s %11s\n",
		"Mode", "commands", "wall", "validate p50", "traj p50", "traj p95",
		"plan h/m", "verdict h/m", "spec hits")
	stage := func(d time.Duration, count int64) string {
		if count == 0 {
			return "—"
		}
		return d.String()
	}
	for _, r := range rows {
		out += fmt.Sprintf("%-12s %9d %10s %13s %12s %12s %11s %13s %11d\n",
			r.Mode, r.Commands, r.Wall.Round(time.Millisecond),
			stage(r.Validate.P50, r.Validate.Count),
			stage(r.Trajectory.P50, r.Trajectory.Count),
			stage(r.Trajectory.P95, r.Trajectory.Count),
			fmt.Sprintf("%d/%d", r.PlanHits, r.PlanMisses),
			fmt.Sprintf("%d/%d", r.VerdictHits, r.VerdictMisses),
			r.SpeculationHits)
	}
	return out
}
