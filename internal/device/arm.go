package device

import (
	"errors"
	"fmt"

	"repro/internal/action"
	"repro/internal/geom"
	"repro/internal/kin"
	"repro/internal/state"
	"repro/internal/world"
)

// VendorBehavior captures how an arm's controller reacts to a target it
// cannot plan a trajectory to — the firmware difference at the heart of
// the paper's category-4 findings.
type VendorBehavior int

// Vendor behaviours observed in the paper.
const (
	// BehaviorAccurate (UR3e/UR5e/N9): the controller raises an error the
	// script sees.
	BehaviorAccurate VendorBehavior = iota + 1
	// BehaviorSilentSkip (ViperX): the controller quietly ignores the
	// command and reports success — "silently skipping a command can be
	// potentially unsafe".
	BehaviorSilentSkip
	// BehaviorHaltOnError (Ned2): the controller throws an exception and
	// halts immediately; subsequent commands fail until a reset.
	BehaviorHaltOnError
)

// BehaviorForModel returns the vendor behaviour of an arm model.
func BehaviorForModel(m kin.Model) VendorBehavior {
	switch m {
	case kin.ModelViperX300:
		return BehaviorSilentSkip
	case kin.ModelNed2:
		return BehaviorHaltOnError
	default:
		return BehaviorAccurate
	}
}

// LocationResolver resolves a named location to coordinates in a given
// arm's frame (the config.Lab implements this).
type LocationResolver interface {
	LocationPos(armID, loc string) (geom.Vec3, bool)
}

// ArmDriver drives one robot arm.
type ArmDriver struct {
	id       string
	base     geom.Vec3 // arm frame origin in the deck frame
	profile  *kin.Profile
	behavior VendorBehavior
	resolver LocationResolver
	halted   bool
	fault    Fault
	// The state keys ReadState reports, built once.
	asleepKey, atKey state.Key
}

var _ Driver = (*ArmDriver)(nil)

// NewArmDriver builds a driver for an arm already mounted in the world.
func NewArmDriver(id string, base geom.Vec3, profile *kin.Profile, behavior VendorBehavior, resolver LocationResolver) *ArmDriver {
	return &ArmDriver{
		id: id, base: base, profile: profile,
		behavior: behavior, resolver: resolver,
		asleepKey: state.ArmAsleep(id), atKey: state.ArmAt(id),
	}
}

// ID implements Driver.
func (d *ArmDriver) ID() string { return d.id }

// InjectFault implements Driver.
func (d *ArmDriver) InjectFault(f Fault) { d.fault = f }

// Halted reports whether the controller refuses motion.
func (d *ArmDriver) Halted() bool { return d.halted }

// Reset clears a halt.
func (d *ArmDriver) Reset() { d.halted = false }

// DeckTarget converts a command's target into the deck frame.
func (d *ArmDriver) DeckTarget(cmd action.Command) (geom.Vec3, error) {
	if cmd.TargetName != "" {
		p, ok := d.resolver.LocationPos(d.id, cmd.TargetName)
		if !ok {
			return geom.Vec3{}, fmt.Errorf("device: arm %s: unknown location %q", d.id, cmd.TargetName)
		}
		return p.Add(d.base), nil
	}
	return cmd.Target.Add(d.base), nil
}

// Execute implements Driver.
func (d *ArmDriver) Execute(w *world.World, cmd action.Command) error {
	if d.halted && cmd.Action.IsRobotMotion() {
		return ErrHalted
	}
	switch cmd.Action {
	case action.MoveRobot, action.MoveRobotInside:
		target, err := d.DeckTarget(cmd)
		if err != nil {
			return err
		}
		opts := world.MoveOptions{Roll: cmd.Roll}
		if cmd.Object != "" {
			opts.IgnoreObjects = []string{cmd.Object}
		}
		err = w.MoveArmTo(d.id, target, opts)
		if err != nil && errors.Is(err, kin.ErrUnreachable) {
			switch d.behavior {
			case BehaviorSilentSkip:
				// The ViperX behaviour: report success, do nothing.
				return nil
			case BehaviorHaltOnError:
				d.halted = true
				return fmt.Errorf("device: arm %s halted: %w", d.id, err)
			default:
				return err
			}
		}
		return err

	case action.MoveHome:
		return w.MoveArmJoints(d.id, d.profile.Home, false)

	case action.MoveSleep:
		return w.MoveArmJoints(d.id, d.profile.Sleep, true)

	case action.PickObject, action.CloseGripper:
		return w.CloseGripper(d.id)

	case action.PlaceObject, action.OpenGripper:
		return w.OpenGripper(d.id)

	case action.ReadStatus:
		return nil

	default:
		return unknownAction(d.id, cmd.Action)
	}
}

// ReadState implements Driver: arms report whether they are folded in the
// sleep pose and which named location (if any) their TCP sits at. They do
// NOT report whether the gripper holds anything — there is no pressure
// sensor, the gap the paper's Bug C exploits.
func (d *ArmDriver) ReadState(w *world.World, into state.Snapshot) {
	asleep, ok := w.ArmAsleep(d.id)
	if !ok {
		return
	}
	into.Set(d.asleepKey, state.Bool(asleep))
	if loc, err := w.NamedLocationOfArm(d.id); err == nil {
		into.Set(d.atKey, state.Str(loc))
	}
}
