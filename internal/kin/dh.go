// Package kin models six-axis robot arms kinematically: Denavit–Hartenberg
// chains, forward kinematics, numerically solved inverse kinematics, and
// joint-space trajectories. The Hein Lab production deck uses a UR3e; the
// paper's testbed uses a ViperX 300 and a Niryo Ned2; the Berlinguette Lab
// uses a UR5e and an N9 — profiles for all of them live in profiles.go.
//
// RABIT itself never needs joint torques or dynamics: its trajectory
// validation (the Extended Simulator) only needs the swept geometry of the
// arm, which a kinematic model provides exactly.
package kin

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/geom"
)

// DHLink is one link of a standard Denavit–Hartenberg chain. Theta is the
// joint variable (all joints here are revolute); Offset is a fixed joint
// angle offset added to the commanded joint value.
type DHLink struct {
	A      float64 // link length (m)
	Alpha  float64 // link twist (rad)
	D      float64 // link offset (m)
	Offset float64 // joint variable offset (rad)
	// Radius is the collision radius of the capsule that models this
	// link's physical volume.
	Radius float64
	// MinAngle and MaxAngle bound the joint variable (rad).
	MinAngle, MaxAngle float64

	// cosAlpha and sinAlpha cache the constant twist's trig for stepDH;
	// Chain.prepare fills them before any FK step.
	cosAlpha, sinAlpha float64
}

// Chain is a serial kinematic chain of revolute joints with a fixed base
// pose in the world (or arm-local) frame.
type Chain struct {
	Name  string
	Base  geom.Pose
	Links []DHLink
	// MaxJointSpeed is the slowest joint's maximum angular velocity
	// (rad/s); it bounds how fast any joint-space move completes.
	MaxJointSpeed float64
	// Repeatability is the arm's positioning repeatability (m, 1σ). The
	// UR3e is ±0.03 mm; the educational testbed arms are far coarser,
	// which is the "device precision" row of the paper's Table I.
	Repeatability float64

	// twistOnce guards the one-time fill of the links' cached twist
	// trig (prepare); Links must not change after the chain's first use.
	twistOnce sync.Once
	// restarts memoizes the chain's IK restart descents
	// (restartmemo.go); its entries hold for this Base and these Links,
	// so neither may change after the chain's first Solve.
	restarts restartMemo
}

// prepare caches every link's twist cos and sin, once per chain. Every
// path into stepDH calls it first, so a Chain built as a literal — not
// only one from NewProfile — never steps with the cache unset.
func (c *Chain) prepare() {
	c.twistOnce.Do(func() {
		for i := range c.Links {
			l := &c.Links[i]
			l.sinAlpha, l.cosAlpha = math.Sincos(l.Alpha)
		}
	})
}

// DOF returns the number of joints.
func (c *Chain) DOF() int { return len(c.Links) }

// ErrJointLimits is returned when a configuration violates joint limits.
var ErrJointLimits = errors.New("kin: joint configuration violates joint limits")

// ErrDOFMismatch is returned when a joint vector has the wrong length.
var ErrDOFMismatch = errors.New("kin: joint vector length does not match chain DOF")

// CheckJoints validates that q has the right arity and respects limits.
func (c *Chain) CheckJoints(q []float64) error {
	if len(q) != len(c.Links) {
		return fmt.Errorf("%w: got %d, want %d", ErrDOFMismatch, len(q), len(c.Links))
	}
	for i, l := range c.Links {
		if q[i] < l.MinAngle || q[i] > l.MaxAngle {
			return fmt.Errorf("%w: joint %d = %.3f rad outside [%.3f, %.3f]",
				ErrJointLimits, i, q[i], l.MinAngle, l.MaxAngle)
		}
	}
	return nil
}

// ClampJoints returns q with every joint clamped into its limits.
func (c *Chain) ClampJoints(q []float64) []float64 {
	out := make([]float64, len(q))
	for i := range q {
		v := q[i]
		if i < len(c.Links) {
			v = max(c.Links[i].MinAngle, min(c.Links[i].MaxAngle, v))
		}
		out[i] = v
	}
	return out
}

// clampJointsInPlace clamps q into joint limits without allocating — the
// IK iteration's form of ClampJoints. With finite limits the builtin min
// and max give math.Min and math.Max's results (NaN stays NaN) but are
// inlined.
func (c *Chain) clampJointsInPlace(q []float64) {
	for i := range q {
		if i < len(c.Links) {
			q[i] = max(c.Links[i].MinAngle, min(c.Links[i].MaxAngle, q[i]))
		}
	}
}

// stepDH advances cur by link l at joint value theta, in place. It is
// exactly cur.Compose(l's DH transform at theta): the same products,
// summed in the same order from zero, so every pose is bit-identical to
// the composed form — without building the link transform or copying
// 96-byte poses through the FK loop. The twist trig comes from the cache
// prepare fills, and math.Sincos returns the bits of math.Sin and
// math.Cos (TestSincosMatchesSinCos), so neither changes a bit.
func stepDH(cur *geom.Pose, l *DHLink, theta float64) {
	st, ct := math.Sincos(theta + l.Offset)
	ca, sa := l.cosAlpha, l.sinAlpha
	// The link's rotation n and translation (tx, ty, tz).
	n00, n01, n02 := ct, -st*ca, st*sa
	n10, n11, n12 := st, ct*ca, -ct*sa
	n20, n21, n22 := 0.0, sa, ca
	tx, ty, tz := l.A*ct, l.A*st, l.D
	r := &cur.R.M
	// Translation first: it is R·t + T with the rotation before the step.
	cur.T = geom.Vec3{
		X: r[0][0]*tx + r[0][1]*ty + r[0][2]*tz + cur.T.X,
		Y: r[1][0]*tx + r[1][1]*ty + r[1][2]*tz + cur.T.Y,
		Z: r[2][0]*tx + r[2][1]*ty + r[2][2]*tz + cur.T.Z,
	}
	// Row i of R·n reads only row i of R, so each row is rewritten in
	// place from a copy of itself.
	for i := range r {
		a0, a1, a2 := r[i][0], r[i][1], r[i][2]
		r[i][0] = 0 + a0*n00 + a1*n10 + a2*n20
		r[i][1] = 0 + a0*n01 + a1*n11 + a2*n21
		r[i][2] = 0 + a0*n02 + a1*n12 + a2*n22
	}
}

// JointOrigins returns the origin of every joint frame, base first and
// end-effector last: DOF+1 points in the chain's base frame's parent
// coordinates (i.e. after applying Base).
func (c *Chain) JointOrigins(q []float64) ([]geom.Vec3, error) {
	return c.JointOriginsInto(q, nil)
}

// JointOriginsInto is JointOrigins writing into pts (grown as needed) —
// the allocation-free form for sampling loops.
func (c *Chain) JointOriginsInto(q []float64, pts []geom.Vec3) ([]geom.Vec3, error) {
	if len(q) != len(c.Links) {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrDOFMismatch, len(q), len(c.Links))
	}
	c.prepare()
	if cap(pts) < len(c.Links)+1 {
		pts = make([]geom.Vec3, 0, len(c.Links)+1)
	}
	pts = pts[:0]
	cur := c.Base
	pts = append(pts, cur.T)
	for i := range c.Links {
		stepDH(&cur, &c.Links[i], q[i])
		pts = append(pts, cur.T)
	}
	return pts, nil
}

// Forward computes the end-effector pose for joint configuration q.
func (c *Chain) Forward(q []float64) (geom.Pose, error) {
	if len(q) != len(c.Links) {
		return geom.Pose{}, fmt.Errorf("%w: got %d, want %d", ErrDOFMismatch, len(q), len(c.Links))
	}
	c.prepare()
	cur := c.Base
	for i := range c.Links {
		stepDH(&cur, &c.Links[i], q[i])
	}
	return cur, nil
}

// EndEffector computes the end-effector position for q.
func (c *Chain) EndEffector(q []float64) (geom.Vec3, error) {
	p, err := c.Forward(q)
	if err != nil {
		return geom.Vec3{}, err
	}
	return p.T, nil
}

// LinkCapsules returns the collision volume of the arm at configuration q
// as one capsule per link whose length is non-negligible, plus a small
// end-effector capsule. Joints whose consecutive origins coincide (pure
// rotations) are skipped.
func (c *Chain) LinkCapsules(q []float64) ([]geom.Capsule, error) {
	pts, err := c.JointOrigins(q)
	if err != nil {
		return nil, err
	}
	return c.linkCapsulesFrom(pts, make([]geom.Capsule, 0, len(pts))), nil
}

// linkCapsulesFrom builds the link capsules for precomputed joint origins
// into caps (assumed empty with sufficient capacity reserved by callers
// that care about allocations).
func (c *Chain) linkCapsulesFrom(pts []geom.Vec3, caps []geom.Capsule) []geom.Capsule {
	for i := 0; i+1 < len(pts); i++ {
		r := c.Links[i].Radius
		if r <= 0 {
			r = 0.03
		}
		if pts[i].Dist(pts[i+1]) < 1e-6 {
			continue
		}
		caps = append(caps, geom.NewCapsule(pts[i], pts[i+1], r))
	}
	// End-effector / gripper stub around the last origin.
	last := pts[len(pts)-1]
	rr := c.Links[len(c.Links)-1].Radius
	if rr <= 0 {
		rr = 0.03
	}
	caps = append(caps, geom.NewCapsule(last, last, rr))
	return caps
}

// Reach returns the maximum reach of the chain from its base: the sum of
// all link lengths and offsets. A target farther than this from the base is
// trivially infeasible.
func (c *Chain) Reach() float64 {
	var r float64
	for _, l := range c.Links {
		r += math.Abs(l.A) + math.Abs(l.D)
	}
	return r
}
