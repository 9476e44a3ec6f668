// Package sim implements the paper's Extended Simulator (Section III,
// Fig. 3): the vendor arm simulator (URSim) augmented with 3D cuboid
// models of every deck device, continuously polling the robot arm's
// trajectory and checking it against the cuboids, the walls, and the
// mounting platform.
//
// The simulator maintains its own mirror of each arm's joint state: it
// plans the same trajectory the arm would execute and sweeps the arm's
// full collision volume along it — which is what catches mid-path
// collisions that the target-only check misses (the paper's footnote-2
// scenario), and what rejects targets the arm cannot plan to at all.
//
// The hot path is organised for throughput. Locking is sharded per arm:
// each mirror arm owns its joint state and scratch buffers under its own
// mutex, so trajectory checks for different arms run concurrently (the
// lab configuration is immutable and the model snapshot is caller-owned,
// so the check itself takes no global lock). Cold checks validate the
// whole trajectory in one batched pass: the samples' capsules are laid
// out in SoA form (kin.SweepBatch), per-link swept AABBs are queried
// against a deck spatial index (deckindex.go) instead of testing every
// solid, and a conservative early-out skips the narrow phase entirely
// for samples whose bound clears every broadphase survivor. The sampling
// fills reusable scratch, so a check performs no per-sample allocation.
//
// The paper reports the Extended Simulator's ~2 s (112%) overhead comes
// almost entirely from its GUI running in a virtual machine. WithGUI
// reproduces that cost class honestly: every collision check renders the
// scene to an offscreen framebuffer with a software rasteriser instead of
// sleeping. GUI rendering is serialised across arms (one framebuffer) and
// disables broadphase pruning so every frame shows the full deck.
package sim

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/action"
	"repro/internal/config"
	"repro/internal/geom"
	"repro/internal/kin"
	"repro/internal/obs"
	"repro/internal/obs/recorder"
	otrace "repro/internal/obs/trace"
	"repro/internal/rules"
	"repro/internal/state"
)

// sweepStep is the maximum end-effector travel between consecutive sweep
// samples (m); shared by the broadphase prepass and the narrow phase so
// both visit exactly the same sample set.
const sweepStep = 0.02

// Violation reports why a trajectory is invalid.
type Violation struct {
	Cmd    action.Command
	Reason string
}

// Error implements error.
func (v *Violation) Error() string {
	return fmt.Sprintf("sim: invalid trajectory for %s: %s", v.Cmd, v.Reason)
}

// Option configures the simulator.
type Option func(*Simulator)

// WithGUI enables the offscreen GUI rendering on every check, modelling
// the paper's GUI-in-a-VM deployment. Width/height are the framebuffer
// dimensions.
func WithGUI(width, height int) Option {
	return func(s *Simulator) {
		s.gui = newRasterizer(width, height)
	}
}

// WithHeldObjectAware makes the swept volume include a held object
// (matching the modified RABIT generation).
func WithHeldObjectAware(aware bool) Option {
	return func(s *Simulator) { s.heldAware = aware }
}

// WithBroadphase selects the cold sweep path. On (the default), sweeps
// run the batched deck-index path; off, they run the classic scan, which
// tests every solid at every sample — the brute-force oracle the
// verdict-equivalence property tests compare the index against. The GUI
// always runs the classic scan, since it renders every sample.
func WithBroadphase(enabled bool) Option {
	return func(s *Simulator) { s.broadphase = enabled }
}

// WithObserver publishes simulator telemetry (collision-check counter,
// broadphase prune/keep counters, in-flight check gauge, GUI frame gauge,
// and the motion fast path's cache/epoch/speculation instruments) into a
// registry — typically the system-wide one.
func WithObserver(reg *obs.Registry) Option {
	return func(s *Simulator) {
		s.reg = reg
		s.cChecks = reg.Counter(obs.CounterSimChecks)
		s.cPruned = reg.Counter(obs.CounterSimBroadphasePruned)
		s.cKept = reg.Counter(obs.CounterSimBroadphaseKept)
		s.cIndexCandidates = reg.Counter(obs.CounterSimIndexCandidates)
		s.cIndexRebuilds = reg.Counter(obs.CounterSimIndexRebuilds)
		s.hIndexRebuild = reg.Histogram(obs.HistSimIndexRebuild)
		s.gInFlight = reg.Gauge(obs.GaugeSimChecksInFlight)
		s.gFrames = reg.Gauge(obs.GaugeGUIFrames)
		s.cVerdictHits = reg.Counter(obs.CounterVerdictCacheHits)
		s.cVerdictMisses = reg.Counter(obs.CounterVerdictCacheMisses)
		s.cVerdictEvictions = reg.Counter(obs.CounterVerdictCacheEvictions)
		s.cEpochBumps = reg.Counter(obs.CounterDeckEpochBumps)
		s.gSpecHits = reg.Gauge(obs.GaugeSpeculationHits)
	}
}

// WithMotionCache enables the motion-planning fast path: IK plans served
// from a plan cache and sweep verdicts from an epoch-keyed verdict
// cache. Off by default, because cached verdicts are only sound under
// the epoch contract: whoever owns the model snapshots MUST call
// BumpDeckEpoch whenever a deck-relevant variable (state.Key.
// DeckRelevant) changes, atomically with publishing the changed model.
// The engine honors that contract; bare simulators driven with ad-hoc
// snapshots generally do not. The GUI path always bypasses the caches —
// it exists to render every check, not to skip them.
func WithMotionCache(enabled bool) Option {
	return func(s *Simulator) { s.cacheOn = enabled }
}

// WithSharedPlanCache makes the simulator memoize IK plans in pc instead
// of a private cache, so several simulators (or other planners) pool
// solutions. Keys embed the chain identity, so arms never cross-read.
func WithSharedPlanCache(pc *kin.PlanCache) Option {
	return func(s *Simulator) { s.planCache = pc }
}

// WithTracer attaches the causal tracer: traced checks emit kin.plan,
// sim.sweep, and sim.verdict child spans under the parent span the
// engine passes in. Must be the same tracer the engine and interceptor
// share, or child spans land in traces nobody retains.
func WithTracer(t *otrace.Tracer) Option {
	return func(s *Simulator) { s.tracer = t }
}

// WithArmProfiles supplies prebuilt kinematic profiles by arm ID,
// skipping NewProfile's canonical-pose IK solves for matching arms.
// Profiles are immutable after construction, so one set may back any
// number of simulators — an engine pool builds them once per deck
// instead of once per pooled stack. Supplied profiles must match the
// lab's arm models and mounting poses.
func WithArmProfiles(profiles map[string]*kin.Profile) Option {
	return func(s *Simulator) { s.sharedProfiles = profiles }
}

// mirrorArm is the simulator's model of one arm. Each arm carries its own
// lock and scratch buffers, so checks on different arms never contend.
type mirrorArm struct {
	mu      sync.Mutex
	profile *kin.Profile
	base    geom.Vec3
	joints  []float64
	drop    float64
	radius  float64
	// Scratch buffers reused across checks (guarded by mu): the sampling
	// workspace, the combined link+tip capsule slice, and the wall planes.
	sweep kin.Sweep
	caps  []geom.Capsule
	walls []geom.Plane
	// Batched sweep scratch: the SoA sample layout, per-sample tip-start
	// indices, and the indexed path's exclusion mask, candidate lists,
	// and per-sample shortlist.
	batch      kin.SweepBatch
	sampleTip  []int
	exclude    []bool
	cand       []int32
	candSeen   []bool
	keptIdx    []int
	sampleCand []int
}

// Simulator is the Extended Simulator. All fields other than the per-arm
// mirrors and the GUI framebuffer are immutable after New, so methods on
// different arms proceed concurrently.
type Simulator struct {
	lab        *config.Lab
	arms       map[string]*mirrorArm // immutable map; values self-locked
	heldAware  bool
	broadphase bool
	// index is the published deck spatial index; indexMu serialises
	// rebuilds when the deck epoch moves (see deckindex.go).
	index   atomic.Pointer[deckIndex]
	indexMu sync.Mutex
	// checks counts ValidTrajectory invocations (for tests/benches).
	checks atomic.Int64
	// guiMu serialises rendering into the single shared framebuffer.
	guiMu sync.Mutex
	gui   *rasterizer
	// Motion-planning fast path (WithMotionCache): memoized IK plans,
	// epoch-keyed sweep verdicts, and the deck epoch itself. epoch is
	// bumped by the model owner on every deck-relevant change; verdict
	// keys embed it, so a bump orphans every earlier verdict.
	cacheOn   bool
	planCache *kin.PlanCache
	verdicts  *verdictCache
	epoch     atomic.Uint64
	specHits  atomic.Int64
	// tracer emits kin/sim child spans under engine-supplied parents
	// (nil = tracing off; every use is nil-guarded).
	tracer *otrace.Tracer
	// sharedProfiles, when set, supplies prebuilt arm profiles by ID
	// (WithArmProfiles); arms not present fall back to NewProfile.
	sharedProfiles map[string]*kin.Profile
	// Telemetry instruments, resolved once by WithObserver (nil-safe
	// otherwise).
	reg               *obs.Registry
	cChecks           *obs.Counter
	cPruned           *obs.Counter
	cKept             *obs.Counter
	cIndexCandidates  *obs.Counter
	cIndexRebuilds    *obs.Counter
	hIndexRebuild     *obs.Histogram
	gInFlight         *obs.Gauge
	gFrames           *obs.Gauge
	cVerdictHits      *obs.Counter
	cVerdictMisses    *obs.Counter
	cVerdictEvictions *obs.Counter
	cEpochBumps       *obs.Counter
	gSpecHits         *obs.Gauge
}

// New builds a simulator mirroring the given lab configuration.
func New(lab *config.Lab, opts ...Option) (*Simulator, error) {
	s := &Simulator{
		lab:        lab,
		arms:       make(map[string]*mirrorArm),
		heldAware:  true,
		broadphase: true,
	}
	for _, o := range opts {
		o(s)
	}
	for _, as := range lab.Spec.Arms {
		p := s.sharedProfiles[as.ID]
		if p == nil {
			model, err := kin.ParseModel(as.Model)
			if err != nil {
				return nil, fmt.Errorf("sim: arm %s: %w", as.ID, err)
			}
			p, err = kin.NewProfile(model, geom.PoseAt(as.Base.V3()))
			if err != nil {
				return nil, fmt.Errorf("sim: arm %s: %w", as.ID, err)
			}
		}
		s.arms[as.ID] = &mirrorArm{
			profile: p,
			base:    as.Base.V3(),
			joints:  append([]float64(nil), p.Home...),
			drop:    as.Gripper.FingerDrop,
			radius:  as.Gripper.FingerRadius,
		}
	}
	if s.cacheOn {
		if s.planCache == nil {
			s.planCache = kin.NewPlanCache(0)
		}
		s.verdicts = newVerdictCache(0)
	}
	if s.reg != nil && s.planCache != nil {
		s.planCache.SetCounters(
			s.reg.Counter(obs.CounterPlanCacheHits),
			s.reg.Counter(obs.CounterPlanCacheMisses),
			s.reg.Counter(obs.CounterPlanCacheEvictions))
	}
	return s, nil
}

// PlanCache returns the simulator's plan cache (nil when the motion
// cache is disabled and none was shared in).
func (s *Simulator) PlanCache() *kin.PlanCache { return s.planCache }

// DeckEpoch returns the current deck epoch. Callers that pair it with a
// model snapshot must read both under the same lock that serialises
// BumpDeckEpoch, or the pairing races.
func (s *Simulator) DeckEpoch() uint64 { return s.epoch.Load() }

// BumpDeckEpoch invalidates every cached verdict by advancing the deck
// epoch. The model owner calls it — atomically with publishing the
// changed model — whenever a deck-relevant variable changes.
func (s *Simulator) BumpDeckEpoch() {
	s.epoch.Add(1)
	s.cEpochBumps.Inc()
}

// Reset re-homes every mirror arm. Mirror joints are the one piece of
// per-run state the simulator accumulates (Observe advances them with
// each motion command), so a pooled simulator must re-home between
// scenarios or the next run starts from wherever the last one parked the
// arms. Not safe to call concurrently with checks.
func (s *Simulator) Reset() {
	for _, m := range s.arms {
		m.mu.Lock()
		m.joints = append(m.joints[:0], m.profile.Home...)
		m.mu.Unlock()
	}
}

// SpeculationHits reports how many on-path checks were answered by a
// verdict a speculative lookahead had already computed.
func (s *Simulator) SpeculationHits() int64 { return s.specHits.Load() }

// SetBroadphase toggles the broadphase at runtime — for property tests
// comparing pruned and unpruned verdicts over an already-wired stack. Not
// safe to call concurrently with checks.
func (s *Simulator) SetBroadphase(enabled bool) { s.broadphase = enabled }

// Checks returns how many trajectory validations have run.
func (s *Simulator) Checks() int {
	return int(s.checks.Load())
}

// deckTarget resolves a command target into the deck frame.
func (s *Simulator) deckTarget(m *mirrorArm, cmd action.Command) (geom.Vec3, error) {
	if cmd.TargetName != "" {
		p, ok := s.lab.LocationPos(cmd.Device, cmd.TargetName)
		if !ok {
			return geom.Vec3{}, fmt.Errorf("unknown location %q", cmd.TargetName)
		}
		return p.Add(m.base), nil
	}
	return cmd.Target.Add(m.base), nil
}

// planned computes the trajectory a motion command would execute in the
// mirror, or an error when no trajectory exists. The caller holds m.mu.
func (s *Simulator) planned(m *mirrorArm, cmd action.Command) (*kin.Trajectory, error) {
	return s.plannedFrom(m, m.joints, cmd)
}

// plannedFrom is planned starting from an explicit configuration — the
// speculative lookahead plans the next command from the predicted
// post-move configuration before the mirror has advanced. IK solves go
// through the plan cache when the fast path is on. The caller holds
// m.mu.
func (s *Simulator) plannedFrom(m *mirrorArm, from []float64, cmd action.Command) (*kin.Trajectory, error) {
	switch cmd.Action {
	case action.MoveHome:
		return &kin.Trajectory{Chain: m.profile.Chain, From: from, To: m.profile.Home}, nil
	case action.MoveSleep:
		return &kin.Trajectory{Chain: m.profile.Chain, From: from, To: m.profile.Sleep}, nil
	default:
		target, err := s.deckTarget(m, cmd)
		if err != nil {
			return nil, err
		}
		if s.cacheOn && s.gui == nil {
			return s.planCache.Plan(m.profile.Chain, from, target, kin.DefaultIKOptions())
		}
		return m.profile.Chain.PlanJointMove(from, target, kin.DefaultIKOptions())
	}
}

// obstacles assembles the deck cuboids visible to a move: every device
// box except (a) the device being entered (its door is guarded by rule 1)
// and (b) any device the arm is currently reaching inside of (leaving it
// must not read as a collision), in deck coordinates.
func (s *Simulator) obstacles(cmd action.Command, model state.Snapshot) []rules.NamedBox {
	var out []rules.NamedBox
	excluded := map[string]bool{}
	if cmd.InsideDevice != "" {
		excluded[cmd.InsideDevice] = true
	}
	if cmd.TargetName != "" && s.lab.LocationIsInside(cmd.TargetName) {
		if owner, ok := s.lab.LocationOwner(cmd.TargetName); ok {
			excluded[owner] = true
		}
	}
	for _, ds := range s.lab.Spec.Devices {
		if model.GetBool(state.ArmInside(cmd.Device, ds.ID)) {
			excluded[ds.ID] = true
		}
		// Open-doored devices may be legitimately reached into.
		for _, door := range s.lab.DeviceDoors(ds.ID) {
			if model.GetBool(state.DoorStatusOf(ds.ID, door)) {
				excluded[ds.ID] = true
				break
			}
		}
	}
	for _, ds := range s.lab.Spec.Devices {
		if excluded[ds.ID] || ds.Type == "sensor" {
			continue
		}
		nb := rules.NamedBox{Name: ds.ID, Box: ds.Cuboid.AABB()}
		if ds.Shape == "cylinder" || ds.Shape == "dome" {
			cap := geom.InscribedVerticalCapsule(nb.Box)
			nb.Rounded = &cap
		}
		out = append(out, nb)
	}
	return out
}

// heldCapsuleFor returns the held object capsule hanging below the TCP,
// if the model believes the arm holds something and the simulator is
// held-object aware.
func (s *Simulator) heldCapsuleFor(cmd action.Command, model state.Snapshot, tcp geom.Vec3) (geom.Capsule, bool) {
	if !s.heldAware {
		return geom.Capsule{}, false
	}
	if !model.GetBool(state.Holding(cmd.Device)) {
		return geom.Capsule{}, false
	}
	obj := model.GetString(state.HeldObject(cmd.Device))
	if obj == "" {
		return geom.Capsule{}, false
	}
	og, ok := s.lab.ObjectGeometry(obj)
	if !ok {
		return geom.Capsule{}, false
	}
	hang := og.CarriedHang - og.Radius
	if hang < 0 {
		hang = 0
	}
	return geom.NewCapsule(tcp, tcp.Add(geom.V(0, 0, -hang)), og.Radius), true
}

// armCapsulesInto appends the arm's full collision volume at trajectory
// parameter t to dst — link capsules followed by the gripper tip capsule
// and, when held-object aware, the held object capsule — and returns it
// plus the offset within the appended run where the tip capsules start.
// The caller holds m.mu.
func (s *Simulator) armCapsulesInto(m *mirrorArm, tr *kin.Trajectory, t float64,
	cmd action.Command, model state.Snapshot, dst []geom.Capsule) ([]geom.Capsule, int, error) {
	start := len(dst)
	dst, err := m.sweep.CapsulesAtInto(tr, t, dst)
	if err != nil {
		return dst, 0, err
	}
	// The last link capsule is the end-effector stub: its endpoint is the
	// TCP, sparing the extra forward-kinematics pass per sample.
	tcp := dst[len(dst)-1].Seg.B
	tipStart := len(dst) - start
	dst = append(dst, geom.NewCapsule(tcp, tcp.Add(geom.V(0, 0, -m.drop)), m.radius))
	if held, ok := s.heldCapsuleFor(cmd, model, tcp); ok {
		dst = append(dst, held)
	}
	return dst, tipStart, nil
}

// armCapsulesAt is armCapsulesInto into m.caps — the per-sample scratch
// the unbatched (brute/GUI) path reuses. The slice is valid until the
// next call; the caller holds m.mu.
func (s *Simulator) armCapsulesAt(m *mirrorArm, tr *kin.Trajectory, t float64,
	cmd action.Command, model state.Snapshot) ([]geom.Capsule, int, error) {
	caps, tipStart, err := s.armCapsulesInto(m, tr, t, cmd, model, m.caps[:0])
	m.caps = caps[:0]
	if err != nil {
		return nil, 0, err
	}
	return caps, tipStart, nil
}

// fillBatch runs the forward-kinematics sweep once, laying every
// sample's capsules out in m.batch (SoA form with per-sample, per-lane,
// and whole-trajectory bounds) and the tip-start offsets in m.sampleTip.
// The caller holds m.mu.
func (s *Simulator) fillBatch(m *mirrorArm, tr *kin.Trajectory,
	cmd action.Command, model state.Snapshot) error {
	n := tr.SampleCount(sweepStep)
	m.batch.Reset()
	m.sampleTip = m.sampleTip[:0]
	for i := 0; i <= n; i++ {
		t := float64(i) / float64(n)
		caps, tipStart, err := s.armCapsulesInto(m, tr, t, cmd, model, m.batch.Caps)
		if err != nil {
			return fmt.Errorf("sweep capsules at t=%.3f: %v", t, err)
		}
		m.batch.Caps = caps
		m.batch.EndSample()
		m.sampleTip = append(m.sampleTip, tipStart)
	}
	return nil
}

// ValidTrajectory validates one robot motion command against the mirror:
// plan the move, sweep the full arm volume, and reject on any collision
// with the deck cuboids or the platform. The model snapshot supplies
// RABIT's current beliefs (held object, door states); the caller must not
// mutate it during the call. Checks for different arms run concurrently;
// checks for the same arm serialise on that arm's mirror.
func (s *Simulator) ValidTrajectory(cmd action.Command, model state.Snapshot) error {
	_, err := s.ValidTrajectoryProv(cmd, model)
	return err
}

// ValidTrajectoryProv is ValidTrajectory plus the verdict's provenance
// for the flight recorder: whether the answer was solved cold, served
// from the epoch-keyed verdict cache, or pre-computed by a speculative
// lookahead (in which case the provenance names the speculation's
// correlation ID). The verdict itself is byte-identical to
// ValidTrajectory's — provenance is observation, never behaviour.
func (s *Simulator) ValidTrajectoryProv(cmd action.Command, model state.Snapshot) (recorder.Verdict, error) {
	return s.validTraced(cmd, model, otrace.SpanContext{})
}

// ValidTrajectoryTraced is ValidTrajectoryProv under a causal parent
// span: the planner and sweep emit kin.plan / sim.sweep / sim.verdict
// child spans beneath it (when WithTracer is set). The verdict is
// byte-identical to ValidTrajectory's — tracing is observation, never
// behaviour.
func (s *Simulator) ValidTrajectoryTraced(cmd action.Command, model state.Snapshot, parent otrace.SpanContext) (recorder.Verdict, error) {
	return s.validTraced(cmd, model, parent)
}

func (s *Simulator) validTraced(cmd action.Command, model state.Snapshot, parent otrace.SpanContext) (recorder.Verdict, error) {
	if !cmd.Action.IsRobotMotion() {
		return recorder.Verdict{}, nil
	}
	s.checks.Add(1)
	s.cChecks.Inc()
	s.gInFlight.Add(1)
	defer s.gInFlight.Add(-1)
	if s.gui != nil {
		defer func() {
			s.guiMu.Lock()
			s.gFrames.Set(int64(s.gui.Frames()))
			s.guiMu.Unlock()
		}()
	}
	m, ok := s.arms[cmd.Device]
	if !ok {
		return recorder.Verdict{}, nil // the simulator only models configured arms
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if s.cacheOn && s.gui == nil {
		return s.cachedVerdict(m, m.joints, cmd, model, s.epoch.Load(), false, "", parent)
	}
	err := s.sweepValidate(m, m.joints, cmd, model, parent)
	s.verdictSpan(parent, recorder.SourceColdSolve, err)
	return recorder.Verdict{Source: recorder.SourceColdSolve, EpochAtValidation: s.epoch.Load()}, err
}

// verdictSpan emits the sim.verdict child span naming where a verdict
// came from. Free when tracing is off or the parent is unbound.
func (s *Simulator) verdictSpan(parent otrace.SpanContext, source string, err error) {
	if s.tracer == nil || !parent.Valid() {
		return
	}
	sp := s.tracer.StartSpan(parent, "sim.verdict")
	sp.SetAttr("source", source)
	if err != nil {
		sp.SetError(err.Error())
	}
	sp.End()
}

// cachedVerdict answers a check from the verdict cache when possible and
// runs (then memoizes) the sweep otherwise. epoch must have been read
// under the same lock that made model current — the entry is stored for
// exactly that (model, epoch) pairing, and a concurrent bump merely
// strands it under a key no future lookup can form. specCorr tags a
// speculative caller's stored verdict with its correlation ID. The
// caller holds m.mu.
func (s *Simulator) cachedVerdict(m *mirrorArm, from []float64, cmd action.Command,
	model state.Snapshot, epoch uint64, speculative bool, specCorr string,
	parent otrace.SpanContext) (recorder.Verdict, error) {
	key := s.verdictKey(from, cmd, epoch)
	v, ok, wasSpec := s.verdicts.get(key, !speculative)
	if ok {
		prov := recorder.Verdict{Source: recorder.SourceCacheHit, EpochAtValidation: epoch}
		if !speculative {
			s.cVerdictHits.Inc()
			if wasSpec {
				s.gSpecHits.Set(s.specHits.Add(1))
				prov.Source = recorder.SourceSpeculative
				prov.SpecCorr = v.corr
			}
		}
		var err error
		if v.reason != "" {
			err = &Violation{Cmd: cmd, Reason: v.reason}
		}
		s.verdictSpan(parent, prov.Source, err)
		return prov, err
	}
	if !speculative {
		s.cVerdictMisses.Inc()
	}
	err := s.sweepValidate(m, from, cmd, model, parent)
	reason := ""
	if v, ok := err.(*Violation); ok {
		reason = v.Reason
	}
	s.verdicts.put(key, outcome{reason: reason, spec: speculative, corr: specCorr}, s.cVerdictEvictions)
	s.verdictSpan(parent, recorder.SourceColdSolve, err)
	return recorder.Verdict{Source: recorder.SourceColdSolve, EpochAtValidation: epoch}, err
}

// sweepValidate plans cmd from the given configuration and runs the full
// swept-volume check against the model's deck, emitting kin.plan and
// sim.sweep child spans under a valid parent. The caller holds m.mu.
func (s *Simulator) sweepValidate(m *mirrorArm, from []float64, cmd action.Command,
	model state.Snapshot, parent otrace.SpanContext) error {
	if s.tracer == nil || !parent.Valid() {
		tr, err := s.plannedFrom(m, from, cmd)
		if err != nil {
			// The arm cannot plan this move at all. Whatever the real
			// controller does (raise, halt, or silently skip), the
			// experiment's intent cannot be executed — alert.
			return &Violation{Cmd: cmd, Reason: fmt.Sprintf("cannot compute trajectory: %v", err)}
		}
		return s.sweepCheck(m, tr, cmd, model)
	}
	planStart := time.Now()
	tr, err := s.plannedFrom(m, from, cmd)
	planEnd := time.Now()
	ps := s.tracer.StartSpanAt(parent, "kin.plan", planStart)
	if err != nil {
		ps.SetError(err.Error())
	}
	ps.EndAt(planEnd)
	if err != nil {
		return &Violation{Cmd: cmd, Reason: fmt.Sprintf("cannot compute trajectory: %v", err)}
	}
	serr := s.sweepCheck(m, tr, cmd, model)
	// The sweep span starts at the planner's end stamp — one shared clock
	// read per boundary, like the engine's stage histograms.
	ss := s.tracer.StartSpanAt(parent, "sim.sweep", planEnd)
	if serr != nil {
		ss.SetError(serr.Error())
	}
	ss.End()
	return serr
}

// sweepCheck runs the full swept-volume check of a planned trajectory
// against the model's deck. The caller holds m.mu. Two implementations
// share one contract — identical verdicts with byte-identical violation
// strings (the equivalence property tests pin this):
//
//   - indexed (the default): one batched forward-kinematics pass into SoA
//     scratch, swept-AABB queries against the deck spatial index, and a
//     conservative per-sample early-out;
//   - classic scan (broadphase off, or under the GUI, which renders every
//     sample): per-sample brute force over the full deck — the oracle the
//     property tests compare the index against.
func (s *Simulator) sweepCheck(m *mirrorArm, tr *kin.Trajectory, cmd action.Command, model state.Snapshot) error {
	if s.broadphase && s.gui == nil {
		return s.sweepCheckIndexed(m, tr, cmd, model)
	}
	return s.sweepCheckClassic(m, tr, cmd, model)
}

// sweepCheckIndexed is the batched cold path. Everything it skips is
// provably unable to produce a violation: sample and lane bounds enclose
// their capsules (radius included), solids outside every queried bound
// cannot intersect any capsule, and a sample whose bounds clear every
// surviving candidate, wall, and the floor needs no narrow phase at all.
// Within a tested sample the check order (floor → walls → obstacles in
// spec order, capsule-major) matches the classic scan, so the first
// violation found — and its reason string — is identical.
func (s *Simulator) sweepCheckIndexed(m *mirrorArm, tr *kin.Trajectory, cmd action.Command, model state.Snapshot) error {
	idx := s.deckIndexFor(s.epoch.Load())
	if err := s.fillBatch(m, tr, cmd, model); err != nil {
		return &Violation{Cmd: cmd, Reason: err.Error()}
	}
	b := &m.batch
	bounds := b.Bounds()

	floor := geom.PlaneFromPointNormal(geom.V(0, 0, s.lab.Spec.FloorZ), geom.V(0, 0, 1))
	m.walls = m.walls[:0]
	for _, ws := range s.lab.Spec.Walls {
		// Normalising a configured wall normal must rescale the offset by
		// the same factor, or the plane silently shifts (the same plane
		// algebra PlaneFromPointNormal applies).
		m.walls = append(m.walls, geom.PlaneFromNormalOffset(ws.Normal.V3(), ws.Offset))
	}
	pruned := 0
	walls := m.walls[:0]
	for _, w := range m.walls {
		if w.MinSignedDistAABB(bounds) < 0 {
			walls = append(walls, w)
		} else {
			pruned++
		}
	}
	checkFloor := floor.MinSignedDistAABB(bounds) < 0
	if !checkFloor {
		pruned++
	}

	// Swept-AABB candidates from the index: one query per lane when the
	// batch is uniform (each lane's bound encloses that capsule at every
	// sample — far tighter than the whole-trajectory box), else one query
	// with the whole bound.
	m.exclude = idx.excludeInto(m.exclude, s, cmd, model)
	m.cand = m.cand[:0]
	if b.Uniform() {
		for l := 0; l < b.Lanes(); l++ {
			m.cand = idx.bvh.Query(b.LaneBounds(l), m.cand)
		}
	} else {
		m.cand = idx.bvh.Query(bounds, m.cand)
	}
	s.cIndexCandidates.Add(int64(len(m.cand)))
	if cap(m.candSeen) < len(idx.solids) {
		m.candSeen = make([]bool, len(idx.solids))
	}
	m.candSeen = m.candSeen[:len(idx.solids)]
	for j := range m.candSeen {
		m.candSeen[j] = false
	}
	for _, j := range m.cand {
		m.candSeen[j] = true
	}
	// Survivors in spec order — the narrow phase must visit obstacles in
	// the order the classic scan does for verdict strings to match.
	eligible := 0
	m.keptIdx = m.keptIdx[:0]
	for j := range idx.solids {
		if m.exclude[j] {
			continue
		}
		eligible++
		if m.candSeen[j] {
			m.keptIdx = append(m.keptIdx, j)
		}
	}
	pruned += eligible - len(m.keptIdx)
	s.cPruned.Add(int64(pruned))
	s.cKept.Add(int64(len(m.keptIdx) + len(walls)))

	n := b.Samples()
	for i := 0; i < n; i++ {
		sb := b.SampleBounds(i)
		m.sampleCand = m.sampleCand[:0]
		for _, j := range m.keptIdx {
			if idx.solids[j].Box.Intersects(sb) {
				m.sampleCand = append(m.sampleCand, j)
			}
		}
		anyWall := false
		for _, w := range walls {
			if w.MinSignedDistAABB(sb) < 0 {
				anyWall = true
				break
			}
		}
		doFloor := checkFloor && floor.MinSignedDistAABB(sb) < 0
		if len(m.sampleCand) == 0 && !anyWall && !doFloor {
			continue
		}
		t := float64(i) / float64(n-1)
		caps := b.Sample(i)
		if doFloor {
			// Tip capsules (fingers + held object) are additionally
			// checked against the platform; link capsules are not — the
			// base column legitimately meets it.
			for _, c := range caps[m.sampleTip[i]:] {
				if geom.CapsulePlanePenetrates(c, floor) {
					return &Violation{Cmd: cmd, Reason: fmt.Sprintf("trajectory dips below the platform at t=%.2f", t)}
				}
			}
		}
		if anyWall {
			for _, c := range caps {
				for _, wall := range walls {
					if geom.CapsulePlanePenetrates(c, wall) {
						return &Violation{Cmd: cmd, Reason: fmt.Sprintf("trajectory punches into a lab wall at t=%.2f", t)}
					}
				}
			}
		}
		for _, c := range caps {
			for _, j := range m.sampleCand {
				if idx.solids[j].IntersectsCapsule(c) {
					return &Violation{Cmd: cmd, Reason: fmt.Sprintf("trajectory collides with %s at t=%.2f", idx.solids[j].Name, t)}
				}
			}
		}
	}
	return nil
}

// sweepCheckClassic is the unindexed sweep: the per-sample brute scan
// over the full deck that the GUI renders and the equivalence property
// tests compare the index against. The caller holds m.mu.
func (s *Simulator) sweepCheckClassic(m *mirrorArm, tr *kin.Trajectory, cmd action.Command, model state.Snapshot) error {
	obstacles := s.obstacles(cmd, model)
	floor := geom.PlaneFromPointNormal(geom.V(0, 0, s.lab.Spec.FloorZ), geom.V(0, 0, 1))
	m.walls = m.walls[:0]
	for _, ws := range s.lab.Spec.Walls {
		// See sweepCheckIndexed on the offset rescale.
		m.walls = append(m.walls, geom.PlaneFromNormalOffset(ws.Normal.V3(), ws.Offset))
	}

	n := tr.SampleCount(sweepStep)
	for i := 0; i <= n; i++ {
		t := float64(i) / float64(n)
		caps, tipStart, err := s.armCapsulesAt(m, tr, t, cmd, model)
		if err != nil {
			return &Violation{Cmd: cmd, Reason: fmt.Sprintf("sweep capsules at t=%.3f: %v", t, err)}
		}
		if s.gui != nil {
			s.guiMu.Lock()
			s.gui.renderScene(obstacles, caps)
			s.guiMu.Unlock()
		}
		// Tip capsules (fingers + held object) are additionally checked
		// against the platform; link capsules are not — the base column
		// legitimately meets it.
		for _, c := range caps[tipStart:] {
			if geom.CapsulePlanePenetrates(c, floor) {
				return &Violation{Cmd: cmd, Reason: fmt.Sprintf("trajectory dips below the platform at t=%.2f", t)}
			}
		}
		for _, c := range caps {
			for _, wall := range m.walls {
				if geom.CapsulePlanePenetrates(c, wall) {
					return &Violation{Cmd: cmd, Reason: fmt.Sprintf("trajectory punches into a lab wall at t=%.2f", t)}
				}
			}
		}
		for _, c := range caps {
			for _, nb := range obstacles {
				if nb.IntersectsCapsule(c) {
					return &Violation{Cmd: cmd, Reason: fmt.Sprintf("trajectory collides with %s at t=%.2f", nb.Name, t)}
				}
			}
		}
	}
	return nil
}

// Observe advances the mirror after a command was accepted and executed:
// the mirrored arm adopts the planned end configuration.
func (s *Simulator) Observe(cmd action.Command, model state.Snapshot) {
	if !cmd.Action.IsRobotMotion() {
		return
	}
	m, ok := s.arms[cmd.Device]
	if !ok {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	tr, err := s.planned(m, cmd)
	if err != nil {
		return // mirror stays put, like a controller that skipped
	}
	m.joints = append(m.joints[:0], tr.To...)
}

// SpeculateAfter pre-solves and pre-validates next as it will run once
// prior completes, warming the plan and verdict caches off the critical
// path. The predicted start configuration is prior's planned end point
// when prior moves the same arm, the mirror's current configuration
// otherwise. model and epoch must have been captured together under the
// model owner's lock: the verdict is stored for exactly that pairing, so
// a deck change during or after the speculation simply strands the entry
// under a dead epoch — mis-speculation can waste work, never poison a
// future check. Reports whether a speculation ran.
func (s *Simulator) SpeculateAfter(prior, next action.Command, model state.Snapshot, epoch uint64) bool {
	return s.SpeculateAfterTagged(prior, next, model, epoch, "")
}

// SpeculateAfterTagged is SpeculateAfter with a flight-recorder
// correlation ID: the verdict it caches carries corr, so the on-path
// check that later consumes it can name the speculative span in its
// provenance. An empty corr degrades to the untagged behaviour.
func (s *Simulator) SpeculateAfterTagged(prior, next action.Command, model state.Snapshot, epoch uint64, corr string) bool {
	return s.SpeculateAfterTraced(prior, next, model, epoch, corr, otrace.SpanContext{})
}

// SpeculateAfterTraced is SpeculateAfterTagged under a causal parent
// span — the engine passes its "speculate" span so the lookahead's
// kin/sim child spans join the hinting command's trace.
func (s *Simulator) SpeculateAfterTraced(prior, next action.Command, model state.Snapshot,
	epoch uint64, corr string, parent otrace.SpanContext) bool {
	if !s.cacheOn || s.gui != nil || !next.Action.IsRobotMotion() {
		return false
	}
	m, ok := s.arms[next.Device]
	if !ok {
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	from := m.joints
	if prior.Device == next.Device && prior.Action.IsRobotMotion() {
		tr, err := s.plannedFrom(m, m.joints, prior)
		if err != nil {
			return false // prior cannot execute; nothing sound to predict
		}
		from = tr.To
	}
	s.cachedVerdict(m, from, next, model, epoch, true, corr, parent)
	return true
}

// ArmTCP reports the mirror's current TCP for an arm (deck frame), for
// display tools.
func (s *Simulator) ArmTCP(armID string) (geom.Vec3, error) {
	m, ok := s.arms[armID]
	if !ok {
		return geom.Vec3{}, fmt.Errorf("sim: no arm %q", armID)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.profile.Chain.EndEffector(m.joints)
}

// GUIFrames reports how many GUI frames have been rendered (0 without
// WithGUI).
func (s *Simulator) GUIFrames() int {
	if s.gui == nil {
		return 0
	}
	s.guiMu.Lock()
	defer s.guiMu.Unlock()
	return s.gui.Frames()
}

// RenderASCII returns a coarse ASCII view of the last rendered frame, or
// "" when the GUI is disabled.
func (s *Simulator) RenderASCII(cols, rows int) string {
	if s.gui == nil {
		return ""
	}
	s.guiMu.Lock()
	defer s.guiMu.Unlock()
	return s.gui.ASCII(cols, rows)
}
