// Package action defines the command vocabulary that flows from experiment
// scripts through the RATracer-style interceptor into RABIT and finally to
// the device drivers. A Command is the unit the Fig. 2 algorithm fetches,
// validates, and executes.
//
// Two levels of abstraction coexist, mirroring the paper's deployments:
// the Hein Lab production wrappers expose semantic actions (pick_object,
// place_object — Table II), while the testbed wrappers drive low-level
// gripper commands (open_gripper / close_gripper). The distinction matters:
// Bug C (a deleted pick-up call) is undetectable on the testbed precisely
// because RABIT only ever sees gripper-level traffic there.
package action

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/geom"
)

// Label names an action type; each label has an entry in the rulebase's
// state transition table.
type Label string

// The action vocabulary.
const (
	// Robot arm motion.
	MoveRobot       Label = "move_robot"        // move to a location (named or raw coordinates)
	MoveRobotInside Label = "move_robot_inside" // move into a device through its door
	MoveHome        Label = "move_home"         // go_to_home_pose
	MoveSleep       Label = "move_sleep"        // go_to_sleep_pose

	// Semantic manipulation (production wrappers, Table II).
	PickObject  Label = "pick_object"
	PlaceObject Label = "place_object"

	// Gripper-level manipulation (testbed wrappers).
	OpenGripper  Label = "open_gripper"
	CloseGripper Label = "close_gripper"

	// Doors.
	OpenDoor  Label = "open_door"
	CloseDoor Label = "close_door"

	// Action devices (hotplate, thermoshaker, centrifuge, decapper, …).
	StartAction    Label = "start_action"
	StopAction     Label = "stop_action"
	SetActionValue Label = "set_action_value"

	// Dosing systems.
	DoseSolid  Label = "dose_solid"
	DoseLiquid Label = "dose_liquid"

	// Containers.
	CapContainer   Label = "cap_container"
	DecapContainer Label = "decap_container"

	// Substance transfer between containers (general rules 7–8).
	TransferSubstance Label = "transfer_substance"

	// Measurement/status; not safety-relevant but present in traces.
	ReadStatus  Label = "read_status"
	RecordImage Label = "record_image"
)

// RobotMotionLabels lists the labels that the Fig. 2 algorithm treats as
// robot commands (line 8: isRobotCommand) and routes through trajectory
// validation when a simulator is available.
func (l Label) IsRobotMotion() bool {
	switch l {
	case MoveRobot, MoveRobotInside, MoveHome, MoveSleep:
		return true
	default:
		return false
	}
}

// IsManipulation reports whether the label operates a gripper.
func (l Label) IsManipulation() bool {
	switch l {
	case PickObject, PlaceObject, OpenGripper, CloseGripper:
		return true
	default:
		return false
	}
}

// Command is one intercepted device command.
type Command struct {
	// Seq is the position of the command in its experiment script; it is
	// assigned by the interceptor and gives alerts a stable reference.
	Seq int `json:"seq"`
	// Device is the ID of the device executing the command (the arm for
	// motion/gripper commands).
	Device string `json:"device"`
	// Action is the action label.
	Action Label `json:"action"`

	// Target is the Cartesian target for motion commands, expressed in
	// the commanded arm's own base frame (the lab's de-facto convention;
	// the paper keeps per-arm frames after the global-frame attempt
	// failed with ~3 cm error).
	Target geom.Vec3 `json:"target,omitempty"`
	// TargetName is the named deck location being addressed, or "" for a
	// raw-coordinate move. Only named locations are trackable state.
	TargetName string `json:"target_name,omitempty"`
	// InsideDevice is the device being entered for MoveRobotInside, the
	// door owner for door commands, or the device a container is placed
	// into/taken from.
	InsideDevice string `json:"inside_device,omitempty"`
	// Door names which door panel a door command operates, for devices
	// with more than one ("" selects the device's sole door) — the
	// multi-door extension of the paper's Section V-C.
	Door string `json:"door,omitempty"`
	// Object is the container/vial operated on (pick/place/dose/cap).
	Object string `json:"object,omitempty"`
	// FromContainer/ToContainer are the endpoints of a substance
	// transfer.
	FromContainer string `json:"from_container,omitempty"`
	ToContainer   string `json:"to_container,omitempty"`
	// Value is the action magnitude: temperature (°C), stirring speed
	// (rpm), dose amount (mg), or volume (mL), depending on Action.
	Value float64 `json:"value,omitempty"`
	// Roll is the commanded wrist roll for motion commands (0 = gripper
	// fingers straight down). RABIT's geometric model ignores it — the
	// root cause of the undetectable wrong-orientation bug.
	Roll float64 `json:"roll,omitempty"`
	// Duration is an explicit action duration where scripts specify one.
	Duration time.Duration `json:"duration,omitempty"`
}

// String renders the command compactly for alerts and traces.
func (c Command) String() string {
	// Appended into a stack buffer: every gateway verdict line renders
	// its command, and a short command then costs one allocation.
	var buf [96]byte
	b := append(buf[:0], '#')
	b = strconv.AppendInt(b, int64(c.Seq), 10)
	b = append(b, ' ')
	b = append(b, c.Device...)
	b = append(b, '.')
	b = append(b, c.Action...)
	switch {
	case c.Action.IsRobotMotion():
		b = append(b, '(')
		if c.TargetName != "" {
			b = append(b, c.TargetName...)
		} else {
			b = append(b, c.Target.String()...)
		}
		b = append(b, ')')
		if c.InsideDevice != "" {
			b = append(b, " inside="...)
			b = append(b, c.InsideDevice...)
		}
	case c.Action == SetActionValue || c.Action == StartAction ||
		c.Action == DoseSolid || c.Action == DoseLiquid:
		b = append(b, '(')
		b = strconv.AppendFloat(b, c.Value, 'g', 3, 64) // fmt's %.3g
		b = append(b, ')')
	case c.Object != "":
		b = append(b, '(')
		b = append(b, c.Object...)
		b = append(b, ')')
	}
	return string(b)
}

// Validate performs basic structural validation (independent of any lab
// state): required fields for the action type.
func (c Command) Validate() error {
	if c.Device == "" {
		return fmt.Errorf("action: command %q has no device", c.Action)
	}
	switch c.Action {
	case MoveRobot:
		if c.TargetName == "" && !c.Target.IsFinite() {
			return fmt.Errorf("action: move_robot needs a finite target or a named location")
		}
	case MoveRobotInside:
		if c.InsideDevice == "" {
			return fmt.Errorf("action: move_robot_inside needs a device")
		}
	case OpenDoor, CloseDoor:
		// Device itself owns the door.
	case DoseSolid, DoseLiquid:
		if c.Value < 0 {
			return fmt.Errorf("action: dose amount must be non-negative, got %v", c.Value)
		}
	case TransferSubstance:
		if c.FromContainer == "" || c.ToContainer == "" {
			return fmt.Errorf("action: transfer needs both containers")
		}
	case SetActionValue:
		// Value may legitimately be zero (e.g. stop heating).
	}
	return nil
}
