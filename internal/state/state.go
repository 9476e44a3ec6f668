// Package state defines the lab-state model RABIT reasons over: typed
// state variables (Section II-A of the paper — e.g. deviceDoorStatus,
// robotArmHolding, robotArmInside), snapshots of those variables, and
// snapshot comparison.
//
// A crucial distinction the paper's evaluation hinges on is observability:
// some variables can be read back from devices with status commands
// (door status, run state, setpoints), while others are only dead-reckoned
// by RABIT's own model (whether a gripper actually holds a vial — the Hein
// Lab has no gripper pressure sensor, which is why Bug C evades detection).
// Snapshot comparison therefore only considers variables present in the
// observed snapshot.
package state

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Key identifies one state variable instance, e.g.
// "deviceDoorStatus[dosing_device]" or "robotArmInside[viperx][dosing_device]".
type Key string

// MakeKey builds a key from a variable name and its qualifiers, in one
// allocation: the builder is sized up front for the bracketed args.
func MakeKey(variable string, args ...string) Key {
	if len(args) == 0 {
		return Key(variable)
	}
	n := len(variable)
	for _, a := range args {
		n += len(a) + 2
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteString(variable)
	for _, a := range args {
		b.WriteByte('[')
		b.WriteString(a)
		b.WriteByte(']')
	}
	return Key(b.String())
}

// Variable returns the variable name portion of the key.
func (k Key) Variable() string {
	if i := strings.IndexByte(string(k), '['); i >= 0 {
		return string(k)[:i]
	}
	return string(k)
}

// Args returns the qualifier list of the key.
func (k Key) Args() []string {
	s := string(k)
	i := strings.IndexByte(s, '[')
	if i < 0 {
		return nil
	}
	var args []string
	for i < len(s) {
		if s[i] != '[' {
			break
		}
		j := strings.IndexByte(s[i:], ']')
		if j < 0 {
			break
		}
		args = append(args, s[i+1:i+j])
		i += j + 1
	}
	return args
}

// Standard state-variable constructors. Using constructors (rather than
// raw strings at call sites) keeps the variable vocabulary in one place.

// DoorStatus is 1/open, 0/closed for a device with a door.
func DoorStatus(device string) Key { return MakeKey("deviceDoorStatus", device) }

// DoorStatusOf addresses one named door panel of a multi-door device;
// the empty name selects the device's sole door (same key as DoorStatus).
func DoorStatusOf(device, door string) Key {
	if door == "" {
		return DoorStatus(device)
	}
	return MakeKey("deviceDoorStatus", device, door)
}

// Running reports whether an action device or dosing system is performing
// its action.
func Running(device string) Key { return MakeKey("deviceRunning", device) }

// ActionValue is the device's commanded action magnitude (temperature,
// stirring speed, spin rate).
func ActionValue(device string) Key { return MakeKey("actionValue", device) }

// Holding reports whether a robot arm's gripper holds an object
// (model-tracked; unobservable without a pressure sensor).
func Holding(arm string) Key { return MakeKey("robotArmHolding", arm) }

// HeldObject is the ID of the object a robot arm holds ("" when none).
func HeldObject(arm string) Key { return MakeKey("robotArmHeldObject", arm) }

// ArmInside reports whether a robot arm currently reaches inside a device.
func ArmInside(arm, device string) Key { return MakeKey("robotArmInside", arm, device) }

// ArmAt is the named location tag of a robot arm ("" after a raw-coordinate
// move; named-location tags are the only observable form of arm position).
func ArmAt(arm string) Key { return MakeKey("robotArmLocation", arm) }

// ArmAsleep reports whether a robot arm is folded in its sleep pose.
func ArmAsleep(arm string) Key { return MakeKey("robotArmAsleep", arm) }

// HasSolid reports whether a container holds any solid.
func HasSolid(container string) Key { return MakeKey("containerHasSolid", container) }

// HasLiquid reports whether a container holds any liquid.
func HasLiquid(container string) Key { return MakeKey("containerHasLiquid", container) }

// Stopper reports whether a container has its stopper (cap) on.
func Stopper(container string) Key { return MakeKey("containerStopper", container) }

// ObjectAt is the ID of the object occupying a named location ("" if free).
func ObjectAt(location string) Key { return MakeKey("objectAtLocation", location) }

// ContainerInside is the ID of the container inside a device ("" if none).
func ContainerInside(device string) Key { return MakeKey("containerInside", device) }

// RedDotNorth is the Hein Lab's centrifuge alignment flag (custom rule 3).
func RedDotNorth(device string) Key { return MakeKey("redDotFacesNorth", device) }

// ZoneOccupied reports whether a presence sensor's monitored zone is
// occupied (by a person or an unexpected object) — the sensor device
// class of the paper's Section V-B.
func ZoneOccupied(sensor string) Key { return MakeKey("zoneOccupied", sensor) }

// IsExogenous reports whether a variable changes on its own rather than
// through commands. Exogenous variables feed preconditions but are
// excluded from the S_expected ≠ S_actual malfunction comparison — a
// person walking into a monitored zone is an environment change, not a
// device malfunction.
func (k Key) IsExogenous() bool {
	return k.Variable() == "zoneOccupied"
}

// DeckRelevant reports whether the variable feeds the Extended
// Simulator's collision verdicts: door panels swing obstacle geometry in
// and out of a trajectory's way, an arm reaching inside a device
// suppresses that device's box, and the held object extends the arm's
// swept volume. The simulator's deck epoch must be bumped whenever one
// of these changes — and only then, so cached verdicts survive the
// dead-reckoning writes (amounts, locations, run states) that cannot
// move deck geometry.
func (k Key) DeckRelevant() bool {
	switch k.Variable() {
	case "deviceDoorStatus", "robotArmInside", "robotArmHolding", "robotArmHeldObject":
		return true
	}
	return false
}

// SolidAmount is the model-tracked solid content of a container (mg),
// dead-reckoned from dosing commands.
func SolidAmount(container string) Key { return MakeKey("containerSolidMg", container) }

// LiquidAmount is the model-tracked liquid content of a container (mL).
func LiquidAmount(container string) Key { return MakeKey("containerLiquidML", container) }

// Kind enumerates value types.
type Kind int

// Value kinds.
const (
	KindBool Kind = iota + 1
	KindInt
	KindFloat
	KindString
)

// Value is a typed state-variable value.
type Value struct {
	Kind Kind    `json:"kind"`
	B    bool    `json:"b,omitempty"`
	I    int64   `json:"i,omitempty"`
	F    float64 `json:"f,omitempty"`
	S    string  `json:"s,omitempty"`
}

// Bool, Int, Float and Str construct values.
func Bool(b bool) Value     { return Value{Kind: KindBool, B: b} }
func Int(i int64) Value     { return Value{Kind: KindInt, I: i} }
func Float(f float64) Value { return Value{Kind: KindFloat, F: f} }
func Str(s string) Value    { return Value{Kind: KindString, S: s} }

// AsBool coerces the value to a boolean: bools directly, numbers by
// non-zero, strings by non-empty.
func (v Value) AsBool() bool {
	switch v.Kind {
	case KindBool:
		return v.B
	case KindInt:
		return v.I != 0
	case KindFloat:
		return v.F != 0
	case KindString:
		return v.S != ""
	default:
		return false
	}
}

// AsFloat coerces the value to a float where meaningful.
func (v Value) AsFloat() float64 {
	switch v.Kind {
	case KindFloat:
		return v.F
	case KindInt:
		return float64(v.I)
	case KindBool:
		if v.B {
			return 1
		}
		return 0
	default:
		return 0
	}
}

// Equal compares two values; floats are compared with a small absolute
// tolerance because device read-backs quantise setpoints.
func (v Value) Equal(w Value) bool {
	if v.Kind != w.Kind {
		// Numeric kinds compare across int/float.
		if (v.Kind == KindInt || v.Kind == KindFloat) && (w.Kind == KindInt || w.Kind == KindFloat) {
			return math.Abs(v.AsFloat()-w.AsFloat()) <= 1e-6
		}
		return false
	}
	switch v.Kind {
	case KindBool:
		return v.B == w.B
	case KindInt:
		return v.I == w.I
	case KindFloat:
		return math.Abs(v.F-w.F) <= 1e-6
	case KindString:
		return v.S == w.S
	default:
		return false
	}
}

// String renders the value for alerts and logs.
func (v Value) String() string {
	switch v.Kind {
	case KindBool:
		if v.B {
			return "1"
		}
		return "0"
	case KindInt:
		return fmt.Sprintf("%d", v.I)
	case KindFloat:
		return fmt.Sprintf("%.4g", v.F)
	case KindString:
		return v.S
	default:
		return "<unset>"
	}
}

// Snapshot is a point-in-time assignment of state variables.
type Snapshot map[Key]Value

// Clone deep-copies the snapshot.
func (s Snapshot) Clone() Snapshot {
	out := make(Snapshot, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

// Get returns the value and whether it is present.
func (s Snapshot) Get(k Key) (Value, bool) {
	v, ok := s[k]
	return v, ok
}

// GetBool returns the boolean coercion of a key, false when absent.
func (s Snapshot) GetBool(k Key) bool {
	v, ok := s[k]
	return ok && v.AsBool()
}

// GetString returns the string value of a key, "" when absent or non-string.
func (s Snapshot) GetString(k Key) string {
	if v, ok := s[k]; ok && v.Kind == KindString {
		return v.S
	}
	return ""
}

// Range calls fn for every variable until fn returns false. Iteration
// order is unspecified, like the underlying map's.
func (s Snapshot) Range(fn func(Key, Value) bool) {
	for k, v := range s {
		if !fn(k, v) {
			return
		}
	}
}

// Set assigns a value.
func (s Snapshot) Set(k Key, v Value) { s[k] = v }

// Delete removes a variable: the model holds no opinion about it, so the
// malfunction comparison will skip it.
func (s Snapshot) Delete(k Key) { delete(s, k) }

// Mismatch describes one variable whose observed value differs from the
// expected value.
type Mismatch struct {
	Key      Key
	Expected Value
	Actual   Value
}

// String renders the mismatch for alert messages.
func (m Mismatch) String() string {
	return fmt.Sprintf("%s: expected %v, observed %v", m.Key, m.Expected, m.Actual)
}

// CompareObserved compares an expected snapshot against an observed one,
// only over keys that the observed snapshot actually contains (Fig. 2,
// lines 13–15: S_actual is acquired via status commands, so unobservable
// variables never participate). Mismatches are returned sorted by key for
// deterministic alerts.
func CompareObserved(expected, observed Snapshot) []Mismatch {
	return CompareObservedView(expected, observed)
}

// CompareObservedView is CompareObserved over any expected-state view —
// the hot-path form, letting the engine compare a copy-on-write Overlay
// without first materializing it into a flat snapshot.
func CompareObservedView(expected View, observed Snapshot) []Mismatch {
	var out []Mismatch
	for k, actual := range observed {
		if k.IsExogenous() {
			continue
		}
		exp, ok := expected.Get(k)
		if !ok {
			// The model has no opinion on this variable; skip.
			continue
		}
		if !exp.Equal(actual) {
			out = append(out, Mismatch{Key: k, Expected: exp, Actual: actual})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Merge overlays o onto s, returning a new snapshot. Values in o win.
func (s Snapshot) Merge(o Snapshot) Snapshot {
	out := s.Clone()
	for k, v := range o {
		out[k] = v
	}
	return out
}

// Keys returns the sorted key list, for deterministic iteration.
func (s Snapshot) Keys() []Key {
	keys := make([]Key, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}
