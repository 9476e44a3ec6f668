package kin

import (
	"fmt"
	"math"
	"time"

	"repro/internal/geom"
)

// Trajectory is a joint-space move of a chain between two configurations,
// linearly interpolated in joint space — the standard "MoveJ" profile the
// UR3e and the testbed arms execute. The Extended Simulator validates
// trajectories by sampling them (the paper polls the robot arm's trajectory
// and compares against the 3D objects' coordinates).
type Trajectory struct {
	Chain *Chain
	From  []float64
	To    []float64
}

// PlanJointMove builds the trajectory from configuration from to the IK
// solution of target, validating limits.
func (c *Chain) PlanJointMove(from []float64, target geom.Vec3, opt IKOptions) (*Trajectory, error) {
	if err := c.CheckJoints(from); err != nil {
		return nil, fmt.Errorf("plan joint move: %w", err)
	}
	to, err := c.Solve(target, from, opt)
	if err != nil {
		return nil, fmt.Errorf("plan joint move to %v: %w", target, err)
	}
	return &Trajectory{Chain: c, From: from, To: to}, nil
}

// At returns the joint configuration at parameter t ∈ [0,1].
func (tr *Trajectory) At(t float64) []float64 {
	return tr.AtInto(t, make([]float64, len(tr.From)))
}

// AtInto writes the joint configuration at parameter t ∈ [0,1] into q,
// growing it if needed, and returns it — the allocation-free form of At
// for sampling loops.
func (tr *Trajectory) AtInto(t float64, q []float64) []float64 {
	t = math.Max(0, math.Min(1, t))
	if cap(q) < len(tr.From) {
		q = make([]float64, len(tr.From))
	}
	q = q[:len(tr.From)]
	for i := range q {
		q[i] = tr.From[i] + (tr.To[i]-tr.From[i])*t
	}
	return q
}

// JointSpan returns the largest absolute joint displacement of the move
// (rad), which with the chain's MaxJointSpeed determines its duration.
func (tr *Trajectory) JointSpan() float64 {
	var span float64
	for i := range tr.From {
		span = math.Max(span, math.Abs(tr.To[i]-tr.From[i]))
	}
	return span
}

// Duration returns how long the move takes at the chain's maximum joint
// speed. Zero-length moves still take a minimal settling time.
func (tr *Trajectory) Duration() time.Duration {
	speed := tr.Chain.MaxJointSpeed
	if speed <= 0 {
		speed = 1
	}
	secs := tr.JointSpan() / speed
	if secs < 0.05 {
		secs = 0.05
	}
	return time.Duration(secs * float64(time.Second))
}

// SampleCount returns the number of intermediate samples needed so that the
// end effector moves at most maxStep between consecutive samples; used by
// collision sweeps.
func (tr *Trajectory) SampleCount(maxStep float64) int {
	if maxStep <= 0 {
		maxStep = 0.01
	}
	a, errA := tr.Chain.EndEffector(tr.From)
	b, errB := tr.Chain.EndEffector(tr.To)
	if errA != nil || errB != nil {
		return 2
	}
	// Joint-space interpolation can sweep a longer arc than the chord;
	// use a conservative multiple of the chord length plus a floor
	// proportional to the joint span.
	est := 2*a.Dist(b) + 0.5*tr.JointSpan()
	n := int(math.Ceil(est/maxStep)) + 1
	if n < 2 {
		n = 2
	}
	if n > 2048 {
		n = 2048
	}
	return n
}

// Sweep is a reusable scratch workspace for sampling a trajectory's
// collision capsules without per-sample allocations. The zero value is
// ready to use; a Sweep must not be shared between goroutines.
type Sweep struct {
	q    []float64
	pts  []geom.Vec3
	caps []geom.Capsule
}

// CapsulesAt returns the chain's collision capsules at trajectory
// parameter t, reusing the workspace's buffers. The returned slice is
// only valid until the next CapsulesAt call; its last capsule is the
// end-effector stub, whose segment endpoints are the TCP position.
func (s *Sweep) CapsulesAt(tr *Trajectory, t float64) ([]geom.Capsule, error) {
	s.q = tr.AtInto(t, s.q)
	return s.LinkCapsules(tr.Chain, s.q)
}

// LinkCapsules returns c's collision capsules at configuration q,
// reusing the workspace's buffers: Chain.LinkCapsules without
// allocating once they have grown. The returned slice is only valid
// until the workspace's next call.
func (s *Sweep) LinkCapsules(c *Chain, q []float64) ([]geom.Capsule, error) {
	caps, err := s.linkCapsulesInto(c, q, s.caps[:0])
	if err != nil {
		return nil, err
	}
	s.caps = caps
	return caps, nil
}

// CapsulesAtInto appends the chain's collision capsules at trajectory
// parameter t to dst and returns it — the batch-fill variant of
// CapsulesAt for SoA layouts that concatenate every sample into one
// flat slice (see SweepBatch) instead of aliasing the workspace buffer.
func (s *Sweep) CapsulesAtInto(tr *Trajectory, t float64, dst []geom.Capsule) ([]geom.Capsule, error) {
	s.q = tr.AtInto(t, s.q)
	return s.linkCapsulesInto(tr.Chain, s.q, dst)
}

// linkCapsulesInto appends c's collision capsules at configuration q to
// dst and returns it.
func (s *Sweep) linkCapsulesInto(c *Chain, q []float64, dst []geom.Capsule) ([]geom.Capsule, error) {
	pts, err := c.JointOriginsInto(q, s.pts)
	if err != nil {
		return dst, err
	}
	s.pts = pts
	return c.linkCapsulesFrom(pts, dst), nil
}

// SweepBatch accumulates a whole trajectory's collision volume in SoA
// (structure-of-arrays) form: every sample's capsules concatenated into
// one flat slice, with per-sample offsets and AABBs, per-lane swept
// AABBs, and the whole-trajectory AABB — everything a batched validation
// pass needs, computed incrementally as samples are appended, with no
// allocation once the buffers have grown. A "lane" is one capsule
// position within a sample (link k, the gripper tip, the held object);
// a lane's swept bound encloses that capsule at every sample, which is
// a far tighter broadphase volume than the whole trajectory's box. Lane
// bounds are only meaningful when every sample appends the same capsule
// count (Uniform); a chain that drops a degenerate link mid-trajectory
// degrades consumers to the whole-trajectory bound.
//
// The zero value is ready after Reset; a SweepBatch must not be shared
// between goroutines.
type SweepBatch struct {
	// Caps is the flat capsule store. Producers append one sample's
	// capsules (e.g. via Sweep.CapsulesAtInto, plus any extras such as a
	// held object), then call EndSample to close it.
	Caps []geom.Capsule

	off     []int       // len = Samples()+1; sample i is Caps[off[i]:off[i+1]]
	sample  []geom.AABB // per-sample bounds
	lane    []geom.AABB // per-lane swept bounds (meaningful when uniform)
	bounds  geom.AABB   // whole-trajectory bounds
	uniform bool
	n       int
}

// Reset discards all samples, keeping the grown buffers.
func (b *SweepBatch) Reset() {
	b.Caps = b.Caps[:0]
	b.off = append(b.off[:0], 0)
	b.sample = b.sample[:0]
	b.lane = b.lane[:0]
	b.uniform = true
	b.n = 0
}

// EndSample closes the current sample — everything appended to Caps
// since the previous EndSample (or Reset) — folding its capsule bounds
// into the per-sample, per-lane, and whole-trajectory AABBs.
func (b *SweepBatch) EndSample() {
	start := b.off[len(b.off)-1]
	b.off = append(b.off, len(b.Caps))
	var sb geom.AABB
	for k, c := range b.Caps[start:] {
		cb := c.Bounds()
		if k == 0 {
			sb = cb
		} else {
			sb = sb.Union(cb)
		}
		if b.uniform {
			if b.n == 0 {
				b.lane = append(b.lane, cb)
			} else if k < len(b.lane) {
				b.lane[k] = b.lane[k].Union(cb)
			}
		}
	}
	if b.n == 0 {
		b.bounds = sb
	} else {
		b.bounds = b.bounds.Union(sb)
	}
	if b.n > 0 && len(b.Caps)-start != len(b.lane) {
		b.uniform = false
	}
	b.sample = append(b.sample, sb)
	b.n++
}

// Samples reports how many samples have been closed.
func (b *SweepBatch) Samples() int { return b.n }

// Sample returns sample i's capsules (a view into Caps).
func (b *SweepBatch) Sample(i int) []geom.Capsule { return b.Caps[b.off[i]:b.off[i+1]] }

// SampleBounds returns the AABB enclosing sample i's capsules.
func (b *SweepBatch) SampleBounds(i int) geom.AABB { return b.sample[i] }

// Bounds returns the AABB enclosing every capsule of every sample.
func (b *SweepBatch) Bounds() geom.AABB { return b.bounds }

// Uniform reports whether every sample appended the same capsule count,
// which is what makes per-lane bounds cover their lane at every sample.
func (b *SweepBatch) Uniform() bool { return b.uniform && b.n > 0 }

// Lanes reports the per-sample capsule count of a uniform batch.
func (b *SweepBatch) Lanes() int { return len(b.lane) }

// LaneBounds returns the AABB enclosing lane l's capsule at every
// sample. Only meaningful when Uniform reports true.
func (b *SweepBatch) LaneBounds(l int) geom.AABB { return b.lane[l] }

// SweepCapsules invokes fn once per sample with the arm's collision
// capsules along the trajectory; fn returning false stops the sweep early.
// The parameter passed to fn is the trajectory parameter of that sample.
// The capsule slice is reused between samples: fn must not retain it.
func (tr *Trajectory) SweepCapsules(maxStep float64, fn func(t float64, caps []geom.Capsule) bool) error {
	var s Sweep
	n := tr.SampleCount(maxStep)
	for i := 0; i <= n; i++ {
		t := float64(i) / float64(n)
		caps, err := s.CapsulesAt(tr, t)
		if err != nil {
			return fmt.Errorf("sweep capsules at t=%.3f: %w", t, err)
		}
		if !fn(t, caps) {
			return nil
		}
	}
	return nil
}

// SweptBounds returns the AABB enclosing every collision capsule at every
// sample the maxStep sweep visits — the broadphase bound: a solid whose
// box does not touch it cannot intersect any sampled capsule, and a plane
// whose negative half-space does not touch it cannot be penetrated.
func (tr *Trajectory) SweptBounds(maxStep float64, s *Sweep) (geom.AABB, error) {
	n := tr.SampleCount(maxStep)
	var bounds geom.AABB
	first := true
	for i := 0; i <= n; i++ {
		t := float64(i) / float64(n)
		caps, err := s.CapsulesAt(tr, t)
		if err != nil {
			return geom.AABB{}, fmt.Errorf("swept bounds at t=%.3f: %w", t, err)
		}
		for _, c := range caps {
			if first {
				bounds = c.Bounds()
				first = false
				continue
			}
			bounds = bounds.Union(c.Bounds())
		}
	}
	return bounds, nil
}

// EndEffectorPath returns the sampled end-effector positions along the
// trajectory, for display and for the testbed's polling-based checks.
func (tr *Trajectory) EndEffectorPath(samples int) ([]geom.Vec3, error) {
	if samples < 2 {
		samples = 2
	}
	path := make([]geom.Vec3, 0, samples)
	q := make([]float64, len(tr.From))
	for i := 0; i < samples; i++ {
		t := float64(i) / float64(samples-1)
		p, err := tr.Chain.EndEffector(tr.AtInto(t, q))
		if err != nil {
			return nil, fmt.Errorf("end-effector path: %w", err)
		}
		path = append(path, p)
	}
	return path, nil
}
