package action

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/geom"
)

func TestIsRobotMotion(t *testing.T) {
	motion := []Label{MoveRobot, MoveRobotInside, MoveHome, MoveSleep}
	for _, l := range motion {
		if !l.IsRobotMotion() {
			t.Errorf("%s should be robot motion", l)
		}
	}
	nonMotion := []Label{PickObject, OpenDoor, StartAction, DoseSolid, OpenGripper, ReadStatus}
	for _, l := range nonMotion {
		if l.IsRobotMotion() {
			t.Errorf("%s should not be robot motion", l)
		}
	}
}

func TestIsManipulation(t *testing.T) {
	for _, l := range []Label{PickObject, PlaceObject, OpenGripper, CloseGripper} {
		if !l.IsManipulation() {
			t.Errorf("%s should be manipulation", l)
		}
	}
	for _, l := range []Label{MoveRobot, OpenDoor, DoseLiquid} {
		if l.IsManipulation() {
			t.Errorf("%s should not be manipulation", l)
		}
	}
}

func TestCommandValidate(t *testing.T) {
	tests := []struct {
		name    string
		cmd     Command
		wantErr bool
	}{
		{
			"valid-named-move",
			Command{Device: "viperx", Action: MoveRobot, TargetName: "grid_NW"},
			false,
		},
		{
			"valid-raw-move",
			Command{Device: "viperx", Action: MoveRobot, Target: geom.V(0.4, 0, 0.2)},
			false,
		},
		{
			"move-nan-target",
			Command{Device: "viperx", Action: MoveRobot, Target: geom.Vec3{X: math.NaN()}},
			true,
		},
		{
			"no-device",
			Command{Action: MoveRobot, TargetName: "grid_NW"},
			true,
		},
		{
			"move-inside-no-device",
			Command{Device: "viperx", Action: MoveRobotInside},
			true,
		},
		{
			"move-inside-ok",
			Command{Device: "viperx", Action: MoveRobotInside, InsideDevice: "dosing_device"},
			false,
		},
		{
			"negative-dose",
			Command{Device: "dosing_device", Action: DoseSolid, Value: -1},
			true,
		},
		{
			"zero-dose-ok",
			Command{Device: "dosing_device", Action: DoseSolid, Value: 0},
			false,
		},
		{
			"transfer-missing-container",
			Command{Device: "pump", Action: TransferSubstance, FromContainer: "beaker"},
			true,
		},
		{
			"transfer-ok",
			Command{Device: "pump", Action: TransferSubstance, FromContainer: "beaker", ToContainer: "vial_1"},
			false,
		},
		{
			"set-value-zero-ok",
			Command{Device: "hotplate", Action: SetActionValue, Value: 0},
			false,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.cmd.Validate()
			if (err != nil) != tt.wantErr {
				t.Errorf("Validate() err = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestCommandString(t *testing.T) {
	tests := []struct {
		name     string
		cmd      Command
		contains []string
	}{
		{
			"named-move",
			Command{Seq: 3, Device: "viperx", Action: MoveRobot, TargetName: "grid_NW"},
			[]string{"#3", "viperx.move_robot", "grid_NW"},
		},
		{
			"raw-move",
			Command{Seq: 1, Device: "ned2", Action: MoveRobot, Target: geom.V(0.443, -0.010, 0.292)},
			[]string{"ned2.move_robot", "0.443"},
		},
		{
			"move-inside",
			Command{Device: "viperx", Action: MoveRobotInside, InsideDevice: "dosing_device", TargetName: "dd_pickup"},
			[]string{"inside=dosing_device"},
		},
		{
			"set-value",
			Command{Device: "hotplate", Action: SetActionValue, Value: 120},
			[]string{"120"},
		},
		{
			"pick",
			Command{Device: "ur3e", Action: PickObject, Object: "vial_1"},
			[]string{"pick_object(vial_1)"},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s := tt.cmd.String()
			for _, want := range tt.contains {
				if !strings.Contains(s, want) {
					t.Errorf("String() = %q missing %q", s, want)
				}
			}
		})
	}
}

// fmtCommandString is Command.String as it was built with fmt: the
// reference the appending renderer must match byte for byte.
func fmtCommandString(c Command) string {
	s := fmt.Sprintf("#%d %s.%s", c.Seq, c.Device, c.Action)
	switch {
	case c.Action.IsRobotMotion():
		if c.TargetName != "" {
			s += fmt.Sprintf("(%s)", c.TargetName)
		} else {
			s += fmt.Sprintf("(%v)", c.Target)
		}
		if c.InsideDevice != "" {
			s += fmt.Sprintf(" inside=%s", c.InsideDevice)
		}
	case c.Action == SetActionValue || c.Action == StartAction ||
		c.Action == DoseSolid || c.Action == DoseLiquid:
		s += fmt.Sprintf("(%.3g)", c.Value)
	case c.Object != "":
		s += fmt.Sprintf("(%s)", c.Object)
	}
	return s
}

func TestCommandStringMatchesFmt(t *testing.T) {
	values := []float64{0, math.Copysign(0, -1), 1, -1, 120, 0.5, 1234.5678, -0.000123456,
		1e21, 1e-7, 999.5, math.MaxFloat64, math.SmallestNonzeroFloat64,
		math.Inf(1), math.Inf(-1), math.NaN()}
	labels := []Label{SetActionValue, StartAction, DoseSolid, DoseLiquid, StopAction, ReadStatus,
		OpenDoor, PickObject, PlaceObject, MoveRobot, MoveRobotInside, MoveHome, MoveSleep, OpenGripper}
	var cmds []Command
	for i, l := range labels {
		for j, v := range values {
			cmds = append(cmds,
				Command{Seq: i*100 + j - 3, Device: "dev", Action: l, Value: v},
				Command{Seq: j, Device: "", Action: l, Value: v, Object: "vial_1"},
				Command{Seq: 7, Device: "viperx", Action: l, Target: geom.V(v, -0.0104, 0.2925), InsideDevice: "dd"},
				Command{Seq: 8, Device: "ur3e", Action: l, TargetName: "grid_NW", Object: "vial_2"},
			)
		}
	}
	cmds = append(cmds, Command{Seq: math.MaxInt, Device: strings.Repeat("d", 200), Action: DoseLiquid, Value: 2.5})
	for _, c := range cmds {
		if got, want := c.String(), fmtCommandString(c); got != want {
			t.Errorf("String() = %q, fmt rendering %q", got, want)
		}
	}
}
