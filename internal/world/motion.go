package world

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/geom"
	"repro/internal/kin"
)

// CollisionError reports that a motion physically collided; the damage
// event has already been recorded in the world's event log.
type CollisionError struct {
	Ev Event
}

// Error implements error.
func (e *CollisionError) Error() string {
	return fmt.Sprintf("world: collision: %s", e.Ev.Description)
}

// AsCollision extracts a CollisionError from an error chain.
func AsCollision(err error) (*CollisionError, bool) {
	var ce *CollisionError
	if errors.As(err, &ce) {
		return ce, true
	}
	return nil, false
}

// MoveOptions tunes a single arm move.
type MoveOptions struct {
	// Roll is the wrist roll at the end of the move (0 = fingers down).
	Roll float64
	// IgnoreObjects are object IDs excluded from collision checking —
	// the vial the gripper is deliberately descending onto.
	IgnoreObjects []string
}

// obstacle is a static collision volume present during a sweep.
type obstacle struct {
	box     geom.AABB
	rounded *geom.Capsule // non-nil for cylinder/dome bodies
	bounds  geom.AABB     // conservative bound of the solid, for the sweep prepass
	id      string
	isDoor  bool
	fixture *Fixture
	object  *Object
}

// hitBy tests an arm capsule against the obstacle's solid.
func (ob *obstacle) hitBy(c geom.Capsule) bool {
	if ob.rounded != nil {
		return geom.CapsuleCapsuleIntersect(c, *ob.rounded)
	}
	return geom.CapsuleAABBIntersect(c, ob.box)
}

// sweepStep is the collision check granularity along trajectories (m).
const sweepStep = 0.015

// MoveArmTo moves the arm's tool centre point to a global-frame target.
// It plans with the arm's kinematics (an infeasible target returns
// kin.ErrUnreachable — how the arm's *driver* reacts to that is a
// per-vendor behaviour layered above), sweeps the arm's full collision
// volume, and physically collides with whatever is in the way.
func (w *World) MoveArmTo(armID string, target geom.Vec3, opts MoveOptions) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	a, ok := w.arms[armID]
	if !ok {
		return fmt.Errorf("world: no arm %q", armID)
	}
	noisy := w.noisyTargetLocked(a, target)
	tr, err := w.planLocked(a, noisy)
	if err != nil {
		return fmt.Errorf("world: arm %s cannot reach %v: %w", armID, target, err)
	}
	if err := w.sweepLocked(a, tr, opts, nil); err != nil {
		return err
	}
	w.finishMoveLocked(a, tr, opts, target, noisy)
	return nil
}

// MoveArmJoints moves the arm to an explicit joint configuration (home or
// sleep poses), sweeping for collisions like any other move.
func (w *World) MoveArmJoints(armID string, targetJoints []float64, asleep bool) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	a, ok := w.arms[armID]
	if !ok {
		return fmt.Errorf("world: no arm %q", armID)
	}
	if err := a.Profile.Chain.CheckJoints(targetJoints); err != nil {
		return fmt.Errorf("world: arm %s: %w", armID, err)
	}
	tr := &kin.Trajectory{Chain: a.Profile.Chain, From: a.Joints, To: append([]float64(nil), targetJoints...)}
	opts := MoveOptions{Roll: 0}
	if err := w.sweepLocked(a, tr, opts, nil); err != nil {
		return err
	}
	a.Joints = append([]float64(nil), tr.To...)
	a.Roll = 0
	a.Asleep = asleep
	w.now += tr.Duration()
	if tcp, err := a.Profile.Chain.EndEffector(a.Joints); err == nil {
		a.commandedTCP, a.actualTCP = tcp, tcp
	}
	return nil
}

// ConcurrentMove is one leg of a simultaneous multi-arm motion.
type ConcurrentMove struct {
	ArmID  string
	Target geom.Vec3
	Opts   MoveOptions
}

// MoveArmsConcurrently executes several arm moves simultaneously,
// sweeping them in lockstep so that arm-arm collisions *during* motion are
// detected — the scenario the paper's time/space multiplexing exists to
// prevent.
func (w *World) MoveArmsConcurrently(moves []ConcurrentMove) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	legs := make([]concLeg, 0, len(moves))
	noisyTargets := make([]geom.Vec3, 0, len(moves))
	for _, m := range moves {
		a, ok := w.arms[m.ArmID]
		if !ok {
			return fmt.Errorf("world: no arm %q", m.ArmID)
		}
		noisy := w.noisyTargetLocked(a, m.Target)
		tr, err := w.planLocked(a, noisy)
		if err != nil {
			return fmt.Errorf("world: arm %s cannot reach %v: %w", m.ArmID, m.Target, err)
		}
		legs = append(legs, concLeg{arm: a, tr: tr, mv: m, vol: sweepVolume{arm: a, tr: tr, roll: m.Opts.Roll, held: w.heldVolumeLocked(a)}})
		noisyTargets = append(noisyTargets, noisy)
	}
	moving := make(map[string]bool, len(legs))
	for _, l := range legs {
		moving[l.arm.ID] = true
	}
	// Lockstep sweep: sample count from the longest leg.
	n := 2
	for _, l := range legs {
		if c := l.tr.SampleCount(sweepStep); c > n {
			n = c
		}
	}
	// Obstacles are static for the whole sweep; assemble them per leg once.
	legObstacles := make([][]obstacle, len(legs))
	for li, l := range legs {
		legObstacles[li] = w.obstaclesLocked(nil, l.arm, l.mv.Opts, moving)
	}
	allCaps := make([][]labeledCapsule, len(legs))
	allBounds := make([][]geom.AABB, len(legs))
	for i := 0; i <= n; i++ {
		t := float64(i) / float64(n)
		// Position every leg at t, then check each against statics and
		// against the other moving arms.
		for li := range legs {
			caps, err := legs[li].vol.at(t)
			if err != nil {
				return fmt.Errorf("world: concurrent sweep: %w", err)
			}
			allCaps[li] = caps
			allBounds[li], _ = capsuleBounds(caps, allBounds[li][:0])
		}
		for li, l := range legs {
			if ev, hit := w.checkCapsulesLocked(l.arm, allCaps[li], allBounds[li], legObstacles[li]); hit {
				w.stopLegsAt(legs, t)
				w.now += scaleDuration(maxLegDuration(legs), t)
				return &CollisionError{Ev: ev}
			}
			for lj := range legs {
				if lj == li {
					continue
				}
				if ev, hit := w.checkArmArmLocked(l.arm, allCaps[li], legs[lj].arm, allCaps[lj]); hit {
					w.stopLegsAt(legs, t)
					w.now += scaleDuration(maxLegDuration(legs), t)
					return &CollisionError{Ev: ev}
				}
			}
		}
	}
	for li, l := range legs {
		w.finishMoveLocked(l.arm, l.tr, l.mv.Opts, moves[li].Target, noisyTargets[li])
	}
	// Concurrent legs overlap in time; only the longest counts, minus the
	// durations finishMoveLocked already added per leg.
	var sum time.Duration
	for _, l := range legs {
		sum += l.tr.Duration()
	}
	w.now += maxLegDuration(legs) - sum
	return nil
}

// concLeg is one in-flight leg of a concurrent multi-arm move.
type concLeg struct {
	arm *Arm
	tr  *kin.Trajectory
	mv  ConcurrentMove
	vol sweepVolume
}

func maxLegDuration(legs []concLeg) time.Duration {
	var d time.Duration
	for _, l := range legs {
		if l.tr.Duration() > d {
			d = l.tr.Duration()
		}
	}
	return d
}

func (w *World) stopLegsAt(legs []concLeg, t float64) {
	for _, l := range legs {
		l.arm.Joints = l.tr.At(t)
		l.arm.Asleep = false
	}
}

func scaleDuration(d time.Duration, f float64) time.Duration {
	return time.Duration(float64(d) * f)
}

// planLocked plans an arm's joint move to a world-frame target, through
// the plan cache when one is installed.
func (w *World) planLocked(a *Arm, target geom.Vec3) (*kin.Trajectory, error) {
	if w.planCache != nil {
		return w.planCache.Plan(a.Profile.Chain, a.Joints, target, kin.DefaultIKOptions())
	}
	return a.Profile.Chain.PlanJointMove(a.Joints, target, kin.DefaultIKOptions())
}

// noisyTargetLocked perturbs a commanded target by the arm's
// repeatability, modelling device precision.
func (w *World) noisyTargetLocked(a *Arm, target geom.Vec3) geom.Vec3 {
	r := a.Profile.Chain.Repeatability
	if r <= 0 || w.exactMotion {
		return target
	}
	return target.Add(geom.V(
		w.rng.NormFloat64()*r,
		w.rng.NormFloat64()*r,
		w.rng.NormFloat64()*r,
	))
}

// finishMoveLocked commits a completed move. The precision bookkeeping
// compares the commanded target against the point the controller
// physically converged to (the repeatability-perturbed target), so the
// numeric IK solver's tolerance — a substrate artifact, not a property of
// the modelled hardware — does not pollute the Table I precision row.
func (w *World) finishMoveLocked(a *Arm, tr *kin.Trajectory, opts MoveOptions, commanded, converged geom.Vec3) {
	a.Joints = append([]float64(nil), tr.To...)
	a.Roll = opts.Roll
	a.Asleep = false
	a.commandedTCP = commanded
	a.actualTCP = converged
	w.now += tr.Duration()
}

// sweepLocked sweeps one arm's trajectory against all static obstacles and
// the *stationary* other arms. On collision it stops the arm at the
// contact sample, records the damage event, and returns a CollisionError.
//
// The other arms don't move during the sweep, so their collision volumes
// are solved once; per sample, a union bound over the moving arm's
// capsules rejects far-away obstacles and arms before any narrow-phase
// test. Bounds include the capsule radius, so the prepass can only skip
// pairs the narrow phase would reject — verdicts are unchanged.
//
// With a sweep memo installed, a sweep whose exact inputs were already
// swept clean returns nil at once, and a sweep that comes back clean is
// recorded; a sweep that hits anything always runs in full.
func (w *World) sweepLocked(a *Arm, tr *kin.Trajectory, opts MoveOptions, extraIgnore map[string]bool) error {
	sc := &w.sweepScratch
	sc.obstacles = w.obstaclesLocked(sc.obstacles[:0], a, opts, extraIgnore)
	obstacles := sc.obstacles
	others := w.parkedArmsLocked(a, extraIgnore)
	vol := &sc.vol
	vol.arm, vol.tr, vol.roll, vol.held = a, tr, opts.Roll, w.heldVolumeLocked(a)
	defer sc.release()
	memo := w.sweepMemo
	var key *sweepKey
	if memo != nil {
		key = memo.keys.Get().(*sweepKey)
		defer memo.keys.Put(key)
		w.sweepKeyLocked(key, a, tr, vol.roll, vol.held, obstacles, others)
		if memo.seen(key.set, key.entry) {
			return nil
		}
	}
	var scratch [24]geom.AABB
	n := tr.SampleCount(sweepStep)
	for i := 0; i <= n; i++ {
		t := float64(i) / float64(n)
		caps, err := vol.at(t)
		if err != nil {
			return fmt.Errorf("world: sweep: %w", err)
		}
		capBounds, bound := capsuleBounds(caps, scratch[:0])
		if ev, hit := w.checkCapsulesLocked(a, caps, capBounds, obstacles); hit {
			a.Joints = tr.At(t)
			a.Asleep = false
			w.now += scaleDuration(tr.Duration(), t)
			return &CollisionError{Ev: ev}
		}
		for _, o := range others {
			if !bound.Intersects(o.bounds) {
				continue
			}
			if ev, hit := w.checkArmArmLocked(a, caps, o.arm, o.caps); hit {
				a.Joints = tr.At(t)
				a.Asleep = false
				w.now += scaleDuration(tr.Duration(), t)
				return &CollisionError{Ev: ev}
			}
		}
	}
	if memo != nil {
		memo.record(key.set, key.entry)
	}
	return nil
}

// sweepScratch is sweepLocked's working memory, kept by the world and
// reused from move to move so that a sweep allocates nothing once its
// buffers have grown. Only sweepLocked uses it, under mu;
// MoveArmsConcurrently keeps per-leg buffers of its own.
type sweepScratch struct {
	vol        sweepVolume
	obstacles  []obstacle
	ids        []string
	parked     []parkedArm
	parkedCaps []labeledCapsule // every parked arm's volume, back to back
}

// release drops the finished sweep's references to the trajectory, the
// arms and the obstacles, so that between moves the scratch holds only
// buffers.
func (sc *sweepScratch) release() {
	sc.vol.arm, sc.vol.tr = nil, nil
	clear(sc.obstacles)
	clear(sc.parked)
}

// parkedArm is a stationary arm's collision volume, solved once per sweep.
type parkedArm struct {
	arm    *Arm
	caps   []labeledCapsule
	bounds geom.AABB
}

// parkedArmsLocked solves the stationary arms' capsules for a sweep by
// the moving arm into the world's sweep scratch; the result is valid
// until the next call. Sorted by ID so collision attribution doesn't
// depend on map iteration order.
func (w *World) parkedArmsLocked(moving *Arm, skip map[string]bool) []parkedArm {
	sc := &w.sweepScratch
	ids := sc.ids[:0]
	for id := range w.arms {
		if id == moving.ID || (skip != nil && skip[id]) {
			continue
		}
		ids = append(ids, id)
	}
	sort.Strings(ids)
	sc.ids = ids
	out, all := sc.parked[:0], sc.parkedCaps[:0]
	for _, id := range ids {
		other := w.arms[id]
		start := len(all)
		var err error
		all, err = w.labeledCapsulesAt(all, &sc.vol.sweep, other, other.Joints, other.Roll)
		if err != nil {
			continue
		}
		// A later append may move all; caps keeps the earlier array,
		// whose elements are never written again.
		caps := all[start:]
		out = append(out, parkedArm{arm: other, caps: caps, bounds: unionBound(caps)})
	}
	sc.parked, sc.parkedCaps = out, all
	return out
}

// capsuleBounds appends each capsule's bound to dst and returns the
// slice plus the union over all of them.
func capsuleBounds(caps []labeledCapsule, dst []geom.AABB) ([]geom.AABB, geom.AABB) {
	var u geom.AABB
	for i, lc := range caps {
		b := lc.cap.Bounds()
		dst = append(dst, b)
		if i == 0 {
			u = b
		} else {
			u = u.Union(b)
		}
	}
	return dst, u
}

// unionBound is the union of the capsules' bounds: capsuleBounds's
// second result without the per-capsule slice.
func unionBound(caps []labeledCapsule) geom.AABB {
	var u geom.AABB
	for i, lc := range caps {
		if b := lc.cap.Bounds(); i == 0 {
			u = b
		} else {
			u = u.Union(b)
		}
	}
	return u
}

// obstaclesLocked appends to obs the static collision volumes relevant
// to a move by the given arm: fixture bodies (door-aware), and resting
// objects not explicitly ignored. Arms in the skip set are excluded
// (they are handled as moving bodies by the concurrent sweep).
func (w *World) obstaclesLocked(obs []obstacle, a *Arm, opts MoveOptions, skipArms map[string]bool) []obstacle {
	_ = skipArms // arm bodies are checked capsule-to-capsule, not as boxes
	ignore := make(map[string]bool, len(opts.IgnoreObjects))
	for _, id := range opts.IgnoreObjects {
		ignore[id] = true
	}
	for _, f := range w.fixtures {
		if f.Kind == KindSensor {
			// A sensor's cuboid is a monitored zone, not a solid body.
			continue
		}
		if f.hollow() && f.anyDoorOpen() {
			// The device may be reached into through an open doorway;
			// its thin shells are not modelled as obstacles, but every
			// *closed* panel still is — driving into the shut door of a
			// pass-through device breaks it.
			for _, p := range f.panelViews() {
				if p.Open {
					continue
				}
				if slab, ok := f.slabForSide(p.Side); ok {
					obs = append(obs, obstacle{box: slab, bounds: slab, id: f.ID, isDoor: true, fixture: f})
				}
			}
			continue
		}
		if f.hollow() {
			// All doors closed: the whole body is solid; flag the door
			// slabs so damage events name the glass door.
			for _, p := range f.panelViews() {
				if slab, ok := f.slabForSide(p.Side); ok {
					obs = append(obs, obstacle{box: slab, bounds: slab, id: f.ID, isDoor: true, fixture: f})
				}
			}
			obs = append(obs, obstacle{box: f.Body, bounds: f.Body, id: f.ID, fixture: f})
			continue
		}
		ob := obstacle{box: f.Body, bounds: f.Body, id: f.ID, fixture: f}
		if f.Rounded {
			cap := f.roundedCapsule()
			ob.rounded = &cap
			ob.bounds = cap.Bounds()
		}
		obs = append(obs, ob)
	}
	for _, o := range w.objects {
		if o.Broken || o.At == "" || ignore[o.ID] || o.HeldBy != "" {
			continue
		}
		if box, ok := w.objectBoxAtLocked(o); ok {
			obs = append(obs, obstacle{box: box, bounds: box, id: o.ID, object: o})
		}
	}
	return obs
}

// checkCapsulesLocked tests an arm's labelled capsules against static
// obstacles, the floor, and the walls; it records and returns the first
// damage event. capBounds holds each capsule's precomputed bound,
// index-aligned with caps: a capsule whose bound misses an obstacle's
// bound can't hit its solid, so the narrow phase is skipped without
// changing any verdict.
func (w *World) checkCapsulesLocked(a *Arm, caps []labeledCapsule, capBounds []geom.AABB, obstacles []obstacle) (Event, bool) {
	floor := geom.PlaneFromPointNormal(geom.V(0, 0, w.floorZ), geom.V(0, 0, 1))
	for ci, lc := range caps {
		// Floor: only the parts that can realistically dive (fingers and
		// held glassware); the arm's base column legitimately meets the
		// platform.
		if lc.part == "fingers" || isHeldPart(lc.part) {
			if geom.CapsulePlanePenetrates(lc.cap, floor) {
				return w.recordImpactLocked(a, lc, obstacle{id: "platform"}), true
			}
		}
		for _, wall := range w.walls {
			if geom.CapsulePlanePenetrates(lc.cap, wall) {
				return w.recordImpactLocked(a, lc, obstacle{id: "wall"}), true
			}
		}
		for i := range obstacles {
			ob := &obstacles[i]
			if !capBounds[ci].Intersects(ob.bounds) {
				continue
			}
			if ob.hitBy(lc.cap) {
				return w.recordImpactLocked(a, lc, *ob), true
			}
		}
	}
	return Event{}, false
}

// checkArmArmLocked tests two arms' capsule sets against each other.
func (w *World) checkArmArmLocked(a *Arm, aCaps []labeledCapsule, b *Arm, bCaps []labeledCapsule) (Event, bool) {
	for _, ca := range aCaps {
		for _, cb := range bCaps {
			if geom.CapsuleCapsuleIntersect(ca.cap, cb.cap) {
				w.breakHeldLocked(ca.part)
				w.breakHeldLocked(cb.part)
				ev := Event{
					Time: w.now, Kind: EventCollision, Severity: SeverityMediumHigh,
					Description: fmt.Sprintf("robot arms %s and %s collided", a.ID, b.ID),
					Involved:    []string{a.ID, b.ID},
				}
				w.events = append(w.events, ev)
				return ev, true
			}
		}
	}
	return Event{}, false
}

func isHeldPart(part string) bool {
	return len(part) > 5 && part[:5] == "held:"
}

func heldObjectID(part string) string {
	if isHeldPart(part) {
		return part[5:]
	}
	return ""
}

// breakHeldLocked shatters the object named by a held:<id> part label.
func (w *World) breakHeldLocked(part string) {
	if id := heldObjectID(part); id != "" {
		if o, ok := w.objects[id]; ok && !o.Broken {
			o.Broken = true
			w.recordEvent(EventGlassBreak, SeverityMediumLow,
				fmt.Sprintf("held container %s shattered in the collision", id), id)
		}
	}
}

// recordImpactLocked records the damage event for one capsule-obstacle
// impact, with severity attributed per the Table V taxonomy.
func (w *World) recordImpactLocked(a *Arm, lc labeledCapsule, ob obstacle) Event {
	var ev Event
	switch {
	case ob.id == "platform" || ob.id == "wall":
		if isHeldPart(lc.part) {
			// A held vial struck the platform/wall: the glass breaks
			// (Medium-Low, Table V) — the Bug D-with-vial outcome.
			w.breakHeldLocked(lc.part)
			ev = Event{
				Time: w.now, Kind: EventGlassBreak, Severity: SeverityMediumLow,
				Description: fmt.Sprintf("vial held by %s crashed into the %s and broke", a.ID, ob.id),
				Involved:    []string{a.ID, heldObjectID(lc.part), ob.id},
			}
		} else {
			ev = Event{
				Time: w.now, Kind: EventCollision, Severity: SeverityMediumHigh,
				Description: fmt.Sprintf("arm %s (%s) struck the %s", a.ID, lc.part, ob.id),
				Involved:    []string{a.ID, ob.id},
			}
		}
	case ob.object != nil:
		ob.object.Broken = true
		w.breakHeldLocked(lc.part)
		ev = Event{
			Time: w.now, Kind: EventGlassBreak, Severity: SeverityMediumLow,
			Description: fmt.Sprintf("arm %s knocked over container %s", a.ID, ob.object.ID),
			Involved:    []string{a.ID, ob.object.ID},
		}
	case ob.isDoor:
		ob.fixture.Broken = true
		ev = Event{
			Time: w.now, Kind: EventDoorBreak, Severity: ob.fixture.severity(),
			Description: fmt.Sprintf("arm %s smashed the closed door of %s", a.ID, ob.fixture.ID),
			Involved:    []string{a.ID, ob.fixture.ID},
		}
	case ob.fixture != nil:
		ob.fixture.Broken = true
		w.breakHeldLocked(lc.part)
		sev := ob.fixture.severity()
		desc := fmt.Sprintf("arm %s (%s) collided with %s", a.ID, lc.part, ob.fixture.ID)
		if isHeldPart(lc.part) {
			desc = fmt.Sprintf("vial held by %s struck %s", a.ID, ob.fixture.ID)
		}
		ev = Event{
			Time: w.now, Kind: EventCollision, Severity: sev,
			Description: desc,
			Involved:    []string{a.ID, ob.fixture.ID},
		}
	default:
		ev = Event{
			Time: w.now, Kind: EventCollision, Severity: SeverityMediumHigh,
			Description: fmt.Sprintf("arm %s struck %s", a.ID, ob.id),
			Involved:    []string{a.ID, ob.id},
		}
	}
	w.events = append(w.events, ev)
	return ev
}

// NamedLocationOfArm returns the deck location whose grip point coincides
// with the arm's current TCP, or "" — this is the only positional fact an
// arm driver can report back as state (raw poses are frame-local and
// noisy, which is why RABIT tracks position as a named tag).
func (w *World) NamedLocationOfArm(armID string) (string, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	a, ok := w.arms[armID]
	if !ok {
		return "", fmt.Errorf("world: no arm %q", armID)
	}
	tcp, err := a.Profile.Chain.EndEffector(a.Joints)
	if err != nil {
		return "", err
	}
	bestName, bestDist := "", math.Inf(1)
	for name, l := range w.locations {
		if d := l.Pos.Dist(tcp); d <= graspTolerance && d < bestDist {
			bestName, bestDist = name, d
		}
	}
	return bestName, nil
}

// ArmReachesInto reports whether the arm's collision volume currently
// intersects the fixture's interior-or-doorway zone (the ground truth of
// "robot arm inside device").
func (w *World) ArmReachesInto(armID, fixtureID string) (bool, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	a, ok := w.arms[armID]
	if !ok {
		return false, fmt.Errorf("world: no arm %q", armID)
	}
	f, ok := w.fixtures[fixtureID]
	if !ok {
		return false, fmt.Errorf("world: no fixture %q", fixtureID)
	}
	if !f.hollow() {
		return false, nil
	}
	zone := f.Interior
	if slab, ok := f.doorSlab(); ok {
		zone = zone.Union(slab)
	}
	caps, err := w.labeledCapsulesAt(nil, new(kin.Sweep), a, a.Joints, a.Roll)
	if err != nil {
		return false, err
	}
	for _, lc := range caps {
		if geom.CapsuleAABBIntersect(lc.cap, zone) {
			return true, nil
		}
	}
	return false, nil
}
