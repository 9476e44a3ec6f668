package world

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/geom"
	"repro/internal/kin"
)

// Arm is the ground-truth state of a robot arm on the deck. Its kinematic
// chain is mounted at a global base pose; all world-level geometry is
// global, even though scripts command arms in per-arm frames (the drivers
// translate).
type Arm struct {
	ID      string
	Profile *kin.Profile
	// Joints is the current joint configuration.
	Joints []float64
	// Holding is the ID of the gripped object ("" when the gripper is
	// empty or closed on air).
	Holding string
	// GripperClosed tracks the physical gripper state; closing on air
	// still closes the gripper (relevant to the reordered-gripper bug).
	GripperClosed bool
	// Asleep reports whether the arm rests in its sleep pose.
	Asleep bool
	// Roll is the current wrist roll; 0 points the gripper fingers
	// straight down. The paper's "wrong gripper orientation" bug swings
	// the finger blade sideways, which RABIT's link-level model misses.
	Roll float64
	// FingerDrop is how far the fingers extend below the tool centre
	// point; FingerRadius is their collision radius.
	FingerDrop   float64
	FingerRadius float64

	// commandedTCP/actualTCP record the last move for precision
	// accounting (Table I "device precision" row).
	commandedTCP geom.Vec3
	actualTCP    geom.Vec3
}

// DefaultFingerDrop is the standard gripper finger extension below the TCP.
const DefaultFingerDrop = 0.05

// DefaultFingerRadius is the standard finger collision radius.
const DefaultFingerRadius = 0.012

// graspTolerance is how close the TCP must be to a location's grip point
// for a grasp or placement to succeed.
const graspTolerance = 0.02

// labeledCapsule tags a collision capsule with the arm part it models so
// collision consequences can be attributed (a held vial shattering is a
// different event than a link strike).
type labeledCapsule struct {
	cap  geom.Capsule
	part string // "link", "fingers", or "held:<objectID>"
}

// AddArm mounts an arm on the deck in its profile's home configuration.
func (w *World) AddArm(id string, p *kin.Profile) (*Arm, error) {
	if id == "" || p == nil {
		return nil, fmt.Errorf("world: arm needs an ID and a profile")
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, dup := w.arms[id]; dup {
		return nil, fmt.Errorf("world: duplicate arm %q", id)
	}
	a := &Arm{
		ID:           id,
		Profile:      p,
		Joints:       append([]float64(nil), p.Home...),
		FingerDrop:   DefaultFingerDrop,
		FingerRadius: DefaultFingerRadius,
	}
	w.arms[id] = a
	return a, nil
}

// Arm returns the arm by ID.
func (w *World) Arm(id string) (*Arm, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	a, ok := w.arms[id]
	return a, ok
}

// ArmAsleep reports whether the arm is folded in its sleep pose, read
// under the world lock (drivers must not retain *Arm across the lock —
// state fetches run concurrently with command execution).
func (w *World) ArmAsleep(id string) (bool, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	a, ok := w.arms[id]
	if !ok {
		return false, false
	}
	return a.Asleep, true
}

// ArmIDs returns all arm IDs, sorted.
func (w *World) ArmIDs() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	ids := make([]string, 0, len(w.arms))
	for id := range w.arms {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// TCP returns the arm's current tool-centre-point position (global frame).
func (a *Arm) TCP() (geom.Vec3, error) {
	return a.Profile.Chain.EndEffector(a.Joints)
}

// fingerDirection returns the unit direction the finger blade points in
// for a given wrist roll: straight down at roll 0, swinging toward +X as
// roll grows.
func fingerDirection(roll float64) geom.Vec3 {
	return geom.V(math.Sin(roll), 0, -math.Cos(roll))
}

// capsules returns the arm's own collision volume: chain links plus the
// finger blade (oriented by the current roll). It does not include a held
// object; see labeledCapsulesAt.
func (a *Arm) capsules() ([]geom.Capsule, error) {
	caps, err := a.Profile.Chain.LinkCapsules(a.Joints)
	if err != nil {
		return nil, err
	}
	return append(caps, a.fingerCapsule(caps, a.Roll)), nil
}

// fingerCapsule is the finger blade at the given roll, hanging from the
// TCP. links are the chain's link capsules at one configuration: the last
// is the end-effector stub, whose endpoint is the TCP, so the TCP costs no
// second forward-kinematics pass.
func (a *Arm) fingerCapsule(links []geom.Capsule, roll float64) geom.Capsule {
	tcp := links[len(links)-1].Seg.B
	tip := tcp.Add(fingerDirection(roll).Scale(a.FingerDrop))
	return geom.NewCapsule(tcp, tip, a.FingerRadius)
}

// heldVolume is what a held object adds to an arm's collision volume: a
// capsule of the object's radius hanging below the TCP. part is "" when
// the arm holds nothing intact. A sweep resolves it once: a collision
// ends the sweep, so the held object cannot change mid-sweep.
type heldVolume struct {
	part   string // "held:<objectID>"
	radius float64
	hang   float64 // TCP to the capsule segment's lower end
}

// heldVolumeLocked resolves the held-object part of a's collision volume.
// Held objects hang straight down regardless of roll — the gripper holds
// vials by the cap, so gravity keeps them vertical.
func (w *World) heldVolumeLocked(a *Arm) heldVolume {
	if a.Holding == "" {
		return heldVolume{}
	}
	o, ok := w.objects[a.Holding]
	if !ok || o.Broken {
		return heldVolume{}
	}
	// The capsule's *surface* must end exactly at the object's bottom,
	// so the segment stops one radius short of it.
	hang := o.CarriedHang() - o.RadiusM
	if hang < 0 {
		hang = 0
	}
	return heldVolume{part: "held:" + o.ID, radius: o.RadiusM, hang: hang}
}

// appendVolume appends a's labelled collision volume at one configuration
// to dst: the chain's link capsules links, the finger blade at roll, and
// the held object (if any).
func (a *Arm) appendVolume(dst []labeledCapsule, links []geom.Capsule, roll float64, held heldVolume) []labeledCapsule {
	for _, c := range links {
		dst = append(dst, labeledCapsule{cap: c, part: "link"})
	}
	fingers := a.fingerCapsule(links, roll)
	dst = append(dst, labeledCapsule{cap: fingers, part: "fingers"})
	if held.part != "" {
		tcp := fingers.Seg.A
		bottom := tcp.Add(geom.V(0, 0, -held.hang))
		dst = append(dst, labeledCapsule{cap: geom.NewCapsule(tcp, bottom, held.radius), part: held.part})
	}
	return dst
}

// labeledCapsulesAt appends to dst the labelled collision volume for an
// arbitrary joint configuration and roll, including the held object (if
// any), and returns it; on error dst comes back unchanged. sw is the
// forward-kinematics workspace.
func (w *World) labeledCapsulesAt(dst []labeledCapsule, sw *kin.Sweep, a *Arm, joints []float64, roll float64) ([]labeledCapsule, error) {
	links, err := sw.LinkCapsules(a.Profile.Chain, joints)
	if err != nil {
		return dst, err
	}
	return a.appendVolume(dst, links, roll, w.heldVolumeLocked(a)), nil
}

// sweepVolume samples one arm's labelled collision volume along a
// trajectory: one forward-kinematics pass per sample, into buffers that
// are reused from sample to sample. It is used only under the world
// lock.
type sweepVolume struct {
	arm   *Arm
	tr    *kin.Trajectory
	roll  float64
	held  heldVolume
	sweep kin.Sweep
	caps  []labeledCapsule
}

// at returns the volume at trajectory parameter t. The slice is valid
// until the next call.
func (v *sweepVolume) at(t float64) ([]labeledCapsule, error) {
	links, err := v.sweep.CapsulesAt(v.tr, t)
	if err != nil {
		return nil, err
	}
	v.caps = v.arm.appendVolume(v.caps[:0], links, v.roll, v.held)
	return v.caps, nil
}

// CloseGripper closes the arm's gripper. If an intact object rests at a
// location whose grip point coincides with the current TCP, the object is
// grasped; otherwise the gripper simply closes on air (which is exactly
// what happens in the paper's Bug C family — no sensor reports the
// difference).
func (w *World) CloseGripper(armID string) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	a, ok := w.arms[armID]
	if !ok {
		return fmt.Errorf("world: no arm %q", armID)
	}
	w.now += 500 * time.Millisecond
	if a.GripperClosed {
		return nil
	}
	a.GripperClosed = true
	if a.Holding != "" {
		return nil
	}
	tcp, err := a.Profile.Chain.EndEffector(a.Joints)
	if err != nil {
		return fmt.Errorf("world: close gripper on %q: %w", armID, err)
	}
	for _, o := range w.objects {
		if o.Broken || o.At == "" {
			continue
		}
		l, ok := w.locations[o.At]
		if !ok {
			continue
		}
		if l.Pos.Dist(tcp) <= graspTolerance {
			o.HeldBy = armID
			o.At = ""
			a.Holding = o.ID
			return nil
		}
	}
	return nil
}

// OpenGripper opens the arm's gripper. A held object is placed at a free
// location whose grip point coincides with the TCP; with no such location
// beneath it, the object is dropped — glass dropped from height shatters.
func (w *World) OpenGripper(armID string) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	a, ok := w.arms[armID]
	if !ok {
		return fmt.Errorf("world: no arm %q", armID)
	}
	w.now += 500 * time.Millisecond
	a.GripperClosed = false
	if a.Holding == "" {
		return nil
	}
	o := w.objects[a.Holding]
	a.Holding = ""
	if o == nil {
		return nil
	}
	o.HeldBy = ""
	tcp, err := a.Profile.Chain.EndEffector(a.Joints)
	if err != nil {
		return fmt.Errorf("world: open gripper on %q: %w", armID, err)
	}
	for name, l := range w.locations {
		if l.Pos.Dist(tcp) > graspTolerance {
			continue
		}
		if _, occupied := w.objectAtLocked(name); occupied {
			continue
		}
		o.At = name
		return nil
	}
	// No location underneath: the object falls.
	dropHeight := tcp.Z - o.CarriedHang() - w.floorZ
	if dropHeight > 0.02 {
		o.Broken = true
		w.recordEvent(EventDrop, SeverityMediumLow,
			fmt.Sprintf("arm %s released %s mid-air; it fell %.2f m and shattered", armID, o.ID, dropHeight),
			armID, o.ID)
		return nil
	}
	// Released at deck level outside any slot: contents may spill but the
	// glass survives; treat as a spill of any contents.
	if !o.IsEmpty() && !o.Capped {
		w.recordEvent(EventSpill, SeverityLow,
			fmt.Sprintf("%s tipped over on the deck and spilled", o.ID), armID, o.ID)
		o.SolidMg, o.LiquidML = 0, 0
	}
	o.At = ""
	return nil
}

// Precision returns the Cartesian error of the arm's last completed move
// (commanded vs achieved TCP), the paper's "device precision" notion.
func (a *Arm) Precision() float64 {
	if a.commandedTCP == (geom.Vec3{}) && a.actualTCP == (geom.Vec3{}) {
		return 0
	}
	return a.commandedTCP.Dist(a.actualTCP)
}
