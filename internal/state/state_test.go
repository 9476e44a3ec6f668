package state

import (
	"strings"
	"testing"
	"testing/quick"
)

// growingMakeKey is MakeKey as it was before the builder was presized:
// the reference the one-allocation version must match byte for byte.
func growingMakeKey(variable string, args ...string) Key {
	if len(args) == 0 {
		return Key(variable)
	}
	var b strings.Builder
	b.WriteString(variable)
	for _, a := range args {
		b.WriteByte('[')
		b.WriteString(a)
		b.WriteByte(']')
	}
	return Key(b.String())
}

// MakeKey runs for every state key a check touches; it must build a key
// in at most one allocation (none without qualifiers) and produce the
// same bytes as the growing builder it replaced.
func TestMakeKeyOneAllocation(t *testing.T) {
	long := strings.Repeat("x", 40)
	cases := []struct {
		variable string
		args     []string
		allocs   float64
	}{
		{"systemReady", nil, 0},
		{"deviceDoorStatus", []string{"dosing_device"}, 1},
		{"robotArmInside", []string{"viperx", "dosing_device"}, 1},
		{"robotArmInside", []string{long, long}, 1},
		{"v", []string{""}, 1},
	}
	for _, c := range cases {
		if got, want := MakeKey(c.variable, c.args...), growingMakeKey(c.variable, c.args...); got != want {
			t.Errorf("MakeKey(%q, %q) = %q, want %q", c.variable, c.args, got, want)
		}
		var k Key
		n := testing.AllocsPerRun(200, func() { k = MakeKey(c.variable, c.args...) })
		if n != c.allocs {
			t.Errorf("MakeKey(%q, %d args) makes %.1f allocations, want %.0f", c.variable, len(c.args), n, c.allocs)
		}
		_ = k
	}
	prop := func(v, a, b string) bool {
		return MakeKey(v, a) == growingMakeKey(v, a) && MakeKey(v, a, b) == growingMakeKey(v, a, b)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKeyConstruction(t *testing.T) {
	tests := []struct {
		name string
		got  Key
		want string
	}{
		{"plain", MakeKey("systemReady"), "systemReady"},
		{"one-arg", DoorStatus("dosing_device"), "deviceDoorStatus[dosing_device]"},
		{"two-args", ArmInside("viperx", "dosing_device"), "robotArmInside[viperx][dosing_device]"},
		{"holding", Holding("ur3e"), "robotArmHolding[ur3e]"},
		{"object-at", ObjectAt("grid_NW"), "objectAtLocation[grid_NW]"},
		{"red-dot", RedDotNorth("centrifuge"), "redDotFacesNorth[centrifuge]"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if string(tt.got) != tt.want {
				t.Errorf("got %q, want %q", tt.got, tt.want)
			}
		})
	}
}

func TestKeyDecomposition(t *testing.T) {
	k := ArmInside("viperx", "dosing_device")
	if got := k.Variable(); got != "robotArmInside" {
		t.Errorf("Variable() = %q", got)
	}
	args := k.Args()
	if len(args) != 2 || args[0] != "viperx" || args[1] != "dosing_device" {
		t.Errorf("Args() = %v", args)
	}
	plain := MakeKey("ready")
	if plain.Variable() != "ready" || plain.Args() != nil {
		t.Errorf("plain key decomposition wrong: %q %v", plain.Variable(), plain.Args())
	}
}

func TestKeyRoundTripProperty(t *testing.T) {
	if err := quick.Check(func(v string, a, b string) bool {
		// Keys are built from identifier-ish names; exclude brackets.
		for _, s := range []string{v, a, b} {
			for _, r := range s {
				if r == '[' || r == ']' {
					return true
				}
			}
		}
		if v == "" {
			return true
		}
		k := MakeKey(v, a, b)
		args := k.Args()
		return k.Variable() == v && len(args) == 2 && args[0] == a && args[1] == b
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestValueCoercions(t *testing.T) {
	tests := []struct {
		name      string
		v         Value
		wantBool  bool
		wantFloat float64
		wantStr   string
	}{
		{"true", Bool(true), true, 1, "1"},
		{"false", Bool(false), false, 0, "0"},
		{"int", Int(42), true, 42, "42"},
		{"zero-int", Int(0), false, 0, "0"},
		{"float", Float(2.5), true, 2.5, "2.5"},
		{"string", Str("vial_1"), true, 0, "vial_1"},
		{"empty-string", Str(""), false, 0, ""},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.v.AsBool(); got != tt.wantBool {
				t.Errorf("AsBool = %v, want %v", got, tt.wantBool)
			}
			if got := tt.v.AsFloat(); got != tt.wantFloat {
				t.Errorf("AsFloat = %v, want %v", got, tt.wantFloat)
			}
			if got := tt.v.String(); got != tt.wantStr {
				t.Errorf("String = %q, want %q", got, tt.wantStr)
			}
		})
	}
}

func TestValueEqual(t *testing.T) {
	tests := []struct {
		name string
		a, b Value
		want bool
	}{
		{"bool-eq", Bool(true), Bool(true), true},
		{"bool-ne", Bool(true), Bool(false), false},
		{"int-eq", Int(5), Int(5), true},
		{"float-tolerance", Float(1.0), Float(1.0 + 1e-9), true},
		{"float-differs", Float(1.0), Float(1.1), false},
		{"int-float-cross", Int(3), Float(3.0), true},
		{"string-eq", Str("a"), Str("a"), true},
		{"kind-mismatch", Bool(true), Str("1"), false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.a.Equal(tt.b); got != tt.want {
				t.Errorf("Equal = %v, want %v", got, tt.want)
			}
			if got := tt.b.Equal(tt.a); got != tt.want {
				t.Errorf("Equal not symmetric")
			}
		})
	}
}

func TestSnapshotBasics(t *testing.T) {
	s := Snapshot{}
	s.Set(DoorStatus("dd"), Bool(true))
	s.Set(ArmAt("viperx"), Str("home"))

	if v, ok := s.Get(DoorStatus("dd")); !ok || !v.AsBool() {
		t.Error("Get door status failed")
	}
	if !s.GetBool(DoorStatus("dd")) {
		t.Error("GetBool failed")
	}
	if got := s.GetString(ArmAt("viperx")); got != "home" {
		t.Errorf("GetString = %q", got)
	}
	if s.GetBool(DoorStatus("missing")) {
		t.Error("absent key should be false")
	}
	if got := s.GetString(DoorStatus("dd")); got != "" {
		t.Errorf("GetString on bool = %q, want empty", got)
	}
}

func TestSnapshotCloneIsDeep(t *testing.T) {
	s := Snapshot{DoorStatus("dd"): Bool(true)}
	c := s.Clone()
	c.Set(DoorStatus("dd"), Bool(false))
	if !s.GetBool(DoorStatus("dd")) {
		t.Error("Clone shares storage with original")
	}
}

func TestSnapshotMerge(t *testing.T) {
	s := Snapshot{DoorStatus("dd"): Bool(true), Holding("arm"): Bool(false)}
	o := Snapshot{Holding("arm"): Bool(true)}
	m := s.Merge(o)
	if !m.GetBool(Holding("arm")) {
		t.Error("Merge did not apply overlay")
	}
	if !m.GetBool(DoorStatus("dd")) {
		t.Error("Merge dropped base key")
	}
	if s.GetBool(Holding("arm")) {
		t.Error("Merge mutated receiver")
	}
}

func TestCompareObserved(t *testing.T) {
	expected := Snapshot{
		DoorStatus("dd"):  Bool(true),
		Running("dd"):     Bool(false),
		Holding("viperx"): Bool(true), // model-tracked; not in observed
	}
	observed := Snapshot{
		DoorStatus("dd"): Bool(false), // malfunction: door did not open
		Running("dd"):    Bool(false),
	}
	ms := CompareObserved(expected, observed)
	if len(ms) != 1 {
		t.Fatalf("got %d mismatches, want 1: %v", len(ms), ms)
	}
	if ms[0].Key != DoorStatus("dd") {
		t.Errorf("mismatch key = %v", ms[0].Key)
	}
	if ms[0].Expected.AsBool() != true || ms[0].Actual.AsBool() != false {
		t.Errorf("mismatch values wrong: %v", ms[0])
	}
}

func TestCompareObservedIgnoresUnexpectedKeys(t *testing.T) {
	// An observed variable the model has no opinion on (e.g. a sensor
	// the rulebase does not track) must not raise a malfunction.
	expected := Snapshot{}
	observed := Snapshot{ActionValue("hotplate"): Float(23.5)}
	if ms := CompareObserved(expected, observed); len(ms) != 0 {
		t.Errorf("unexpected mismatches: %v", ms)
	}
}

func TestCompareObservedDeterministicOrder(t *testing.T) {
	expected := Snapshot{
		DoorStatus("a"): Bool(true),
		DoorStatus("b"): Bool(true),
		DoorStatus("c"): Bool(true),
	}
	observed := Snapshot{
		DoorStatus("c"): Bool(false),
		DoorStatus("a"): Bool(false),
		DoorStatus("b"): Bool(false),
	}
	for i := 0; i < 10; i++ {
		ms := CompareObserved(expected, observed)
		if len(ms) != 3 {
			t.Fatalf("want 3 mismatches, got %d", len(ms))
		}
		for j := 0; j+1 < len(ms); j++ {
			if ms[j].Key > ms[j+1].Key {
				t.Fatal("mismatches not sorted")
			}
		}
	}
}

func TestSnapshotKeysSorted(t *testing.T) {
	s := Snapshot{
		MakeKey("zzz"): Bool(true),
		MakeKey("aaa"): Bool(true),
		MakeKey("mmm"): Bool(true),
	}
	keys := s.Keys()
	if len(keys) != 3 || keys[0] != "aaa" || keys[1] != "mmm" || keys[2] != "zzz" {
		t.Errorf("Keys() = %v", keys)
	}
}

func TestMismatchString(t *testing.T) {
	m := Mismatch{Key: DoorStatus("dd"), Expected: Bool(true), Actual: Bool(false)}
	want := "deviceDoorStatus[dd]: expected 1, observed 0"
	if got := m.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestExogenousVariablesSkipComparison(t *testing.T) {
	if !ZoneOccupied("s1").IsExogenous() {
		t.Error("zoneOccupied must be exogenous")
	}
	if DoorStatus("dd").IsExogenous() {
		t.Error("door status is command-driven, not exogenous")
	}
	expected := Snapshot{ZoneOccupied("s1"): Bool(false)}
	observed := Snapshot{ZoneOccupied("s1"): Bool(true)}
	if ms := CompareObserved(expected, observed); len(ms) != 0 {
		t.Errorf("exogenous change reported as malfunction: %v", ms)
	}
}
