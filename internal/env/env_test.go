package env

import (
	"maps"
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/action"
	"repro/internal/config"
	"repro/internal/device"
	"repro/internal/geom"
	"repro/internal/labs"
	"repro/internal/state"
)

func buildTestbed(t *testing.T, stage Stage) *Env {
	t.Helper()
	lab, err := labs.Testbed()
	if err != nil {
		t.Fatal(err)
	}
	e, err := Build(lab, stage, 1)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestBuildWiresEverything(t *testing.T) {
	e := buildTestbed(t, StageTestbed)
	w := e.World()
	if got := len(w.ArmIDs()); got != 2 {
		t.Errorf("arms = %d, want 2", got)
	}
	for _, id := range []string{"grid", "dosing_device", "hotplate", "centrifuge", "pump"} {
		if _, ok := w.Fixture(id); !ok {
			t.Errorf("fixture %s missing", id)
		}
	}
	for _, id := range []string{"vial_1", "vial_2", "vial_3", "beaker"} {
		if _, ok := w.Object(id); !ok {
			t.Errorf("object %s missing", id)
		}
		if _, ok := e.Driver(id); !ok {
			t.Errorf("driver for %s missing", id)
		}
	}
	// The pre-loaded vial carries its configured contents.
	v3, _ := w.Object("vial_3")
	if v3.SolidMg != 5 || v3.LiquidML != 1 || !v3.Capped {
		t.Errorf("vial_3 initial contents wrong: %+v", v3)
	}
	// Centrifuge rotor mark starts aligned.
	cf, _ := w.Fixture("centrifuge")
	if !cf.RedDotNorth {
		t.Error("centrifuge red dot should start North")
	}
}

func TestStageParams(t *testing.T) {
	sim := DefaultParams(StageSimulator)
	tb := DefaultParams(StageTestbed)
	prod := DefaultParams(StageProduction)
	if !(sim.MeasurementNoise > tb.MeasurementNoise && tb.MeasurementNoise > prod.MeasurementNoise) {
		t.Error("measurement noise ordering wrong")
	}
	if !(sim.DamageCostScale < tb.DamageCostScale && tb.DamageCostScale < prod.DamageCostScale) {
		t.Error("damage cost ordering wrong")
	}
	if sim.ProcessTimeScale != 0 || prod.ProcessTimeScale != 1 {
		t.Error("process time scales wrong")
	}
	for _, s := range []Stage{StageSimulator, StageTestbed, StageProduction} {
		if s.String() == "" {
			t.Error("unnamed stage")
		}
	}
}

func TestExecuteDispatchAndClock(t *testing.T) {
	e := buildTestbed(t, StageTestbed)
	before := e.Now()
	if err := e.Execute(action.Command{Device: "dosing_device", Action: action.OpenDoor}); err != nil {
		t.Fatal(err)
	}
	if e.Now() <= before {
		t.Error("clock did not advance")
	}
	if err := e.Execute(action.Command{Device: "ghost", Action: action.OpenDoor}); err == nil {
		t.Fatal("unknown device accepted")
	}
}

func TestProcessTimeScale(t *testing.T) {
	tb := buildTestbed(t, StageTestbed)
	prod := buildTestbed(t, StageProduction)
	cmd := action.Command{Device: "hotplate", Action: action.StartAction, Duration: 100 * time.Second}
	t0 := tb.Now()
	if err := tb.Execute(cmd); err != nil {
		t.Fatal(err)
	}
	tbElapsed := tb.Now() - t0
	p0 := prod.Now()
	if err := prod.Execute(cmd); err != nil {
		t.Fatal(err)
	}
	prodElapsed := prod.Now() - p0
	if prodElapsed <= tbElapsed {
		t.Errorf("production process time %v should exceed testbed %v", prodElapsed, tbElapsed)
	}
}

func TestFetchStateObservables(t *testing.T) {
	e := buildTestbed(t, StageTestbed)
	s := e.FetchState()
	// Doors, run state, setpoints, rotor mark, arm flags: observable.
	mustHave := []state.Key{
		state.DoorStatus("dosing_device"),
		state.DoorStatus("centrifuge"),
		state.Running("hotplate"),
		state.ActionValue("hotplate"),
		state.RedDotNorth("centrifuge"),
		state.ArmAsleep("viperx"),
		state.ArmAt("viperx"),
	}
	for _, k := range mustHave {
		if _, ok := s.Get(k); !ok {
			t.Errorf("observable %s missing from FetchState", k)
		}
	}
	// Gripper contents and container contents: never observable.
	mustNotHave := []state.Key{
		state.Holding("viperx"),
		state.HeldObject("ned2"),
		state.HasSolid("vial_1"),
		state.Stopper("vial_1"),
		state.ObjectAt("grid_NW"),
	}
	for _, k := range mustNotHave {
		if _, ok := s.Get(k); ok {
			t.Errorf("unobservable %s leaked into FetchState", k)
		}
	}
}

func TestInjectFault(t *testing.T) {
	e := buildTestbed(t, StageTestbed)
	if err := e.InjectFault("dosing_device", device.FaultDoorStuck); err != nil {
		t.Fatal(err)
	}
	if err := e.Execute(action.Command{Device: "dosing_device", Action: action.OpenDoor}); err != nil {
		t.Fatal(err)
	}
	if e.FetchState().GetBool(state.DoorStatus("dosing_device")) {
		t.Error("stuck door moved")
	}
	if err := e.InjectFault("ghost", device.FaultDoorStuck); err == nil {
		t.Fatal("fault injected into a ghost device")
	}
}

func TestMeasurementNoiseScalesWithStage(t *testing.T) {
	stages := []Stage{StageSimulator, StageTestbed, StageProduction}
	var errs []float64
	for _, st := range stages {
		e := buildTestbed(t, st)
		truth, err := e.World().MeasureSolubility("vial_3")
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		const n = 50
		for i := 0; i < n; i++ {
			m, err := e.MeasureSolubility("vial_3")
			if err != nil {
				t.Fatal(err)
			}
			if m < 0 || m > 1 {
				t.Fatalf("measurement %v outside [0,1]", m)
			}
			sum += math.Abs(m - truth)
		}
		errs = append(errs, sum/n)
	}
	if !(errs[0] > errs[1] && errs[1] > errs[2]) {
		t.Errorf("noise ordering wrong: %v", errs)
	}
}

func TestDamageCostScaling(t *testing.T) {
	for _, tt := range []struct {
		stage Stage
		zero  bool
	}{{StageSimulator, true}, {StageTestbed, false}, {StageProduction, false}} {
		e := buildTestbed(t, tt.stage)
		// Crash the arm into the closed dosing device door.
		_ = e.Execute(action.Command{Device: "viperx", Action: action.MoveRobot, Target: geom.V(0.15, 0.30, 0.19)})
		_ = e.Execute(action.Command{Device: "viperx", Action: action.MoveRobot, Target: geom.V(0.15, 0.45, 0.19)})
		if len(e.World().Events()) == 0 {
			t.Fatalf("%v: crash did not register", tt.stage)
		}
		cost := e.DamageCost()
		if tt.zero && cost != 0 {
			t.Errorf("%v: virtual crash cost %v", tt.stage, cost)
		}
		if !tt.zero && cost <= 0 {
			t.Errorf("%v: physical crash cost nothing", tt.stage)
		}
	}
}

func TestExecuteConcurrentValidation(t *testing.T) {
	e := buildTestbed(t, StageTestbed)
	err := e.ExecuteConcurrent([]action.Command{
		{Device: "dosing_device", Action: action.OpenDoor},
	})
	if err == nil {
		t.Fatal("non-motion command accepted for concurrent execution")
	}
	err = e.ExecuteConcurrent([]action.Command{
		{Device: "viperx", Action: action.MoveRobot, Target: geom.V(0.25, 0.15, 0.25)},
		{Device: "ned2", Action: action.MoveRobot, Target: geom.V(-0.05, 0.15, 0.25)},
	})
	if err != nil {
		t.Fatalf("zone-separated concurrent move failed: %v", err)
	}
}

func TestPacingConsumesWallTime(t *testing.T) {
	e := buildTestbed(t, StageTestbed)
	e.SetPacing(100) // 100× faster than real time
	start := time.Now()
	if err := e.Execute(action.Command{Device: "dosing_device", Action: action.OpenDoor}); err != nil {
		t.Fatal(err)
	}
	// The door takes 1.5 simulated seconds → ≥15 ms paced.
	if wall := time.Since(start); wall < 10*time.Millisecond {
		t.Errorf("paced execution took only %v", wall)
	}
}

// fetchSpecs returns the three labs' specs, each with a two-panel
// pass-through station and a presence sensor added beside the deck, so
// every driver key shape appears in every lab.
func fetchSpecs() map[string]*config.LabSpec {
	specs := map[string]*config.LabSpec{
		"testbed":      labs.TestbedSpec(),
		"hein":         labs.HeinProductionSpec(),
		"berlinguette": labs.BerlinguetteSpec(),
	}
	for _, spec := range specs {
		spec.Devices = append(spec.Devices,
			config.DeviceSpec{
				ID: "pass_through", Type: "action_device", Kind: "decapper", ClassName: "DecapperDriver",
				Doors:    []config.NamedDoorSpec{{Name: "west", Side: "x-"}, {Name: "east", Side: "x+"}},
				Cuboid:   config.BoxSpec{Min: config.Vec{X: 3, Y: 3, Z: 0}, Max: config.Vec{X: 3.2, Y: 3.2, Z: 0.3}},
				Interior: &config.BoxSpec{Min: config.Vec{X: 3.02, Y: 3.02, Z: 0.02}, Max: config.Vec{X: 3.18, Y: 3.18, Z: 0.28}},
			},
			config.DeviceSpec{
				ID: "zone_sensor", Type: "sensor", Kind: "presence", ClassName: "CardboardMockup",
				Cuboid: config.BoxSpec{Min: config.Vec{X: 4, Y: 4, Z: 0}, Max: config.Vec{X: 4.5, Y: 4.5, Z: 0.5}},
			})
	}
	return specs
}

// referenceFetch builds the snapshot FetchState must return for the
// listed devices (nil: all of them) from the state-key constructors and
// the world's ground truth. Sensors are always included.
func referenceFetch(t *testing.T, e *Env, ids []string) state.Snapshot {
	t.Helper()
	w := e.World()
	want := state.Snapshot{}
	listed := func(id string) bool { return ids == nil || slices.Contains(ids, id) }
	for _, as := range e.Lab().Spec.Arms {
		if !listed(as.ID) {
			continue
		}
		asleep, _ := w.ArmAsleep(as.ID)
		want.Set(state.ArmAsleep(as.ID), state.Bool(asleep))
		if loc, err := w.NamedLocationOfArm(as.ID); err == nil {
			want.Set(state.ArmAt(as.ID), state.Str(loc))
		}
	}
	for _, ds := range e.Lab().Spec.Devices {
		f, ok := w.FixtureStatus(ds.ID)
		if !ok {
			t.Fatalf("fixture %s missing", ds.ID)
		}
		if ds.Type == "sensor" {
			want.Set(state.ZoneOccupied(ds.ID), state.Bool(f.Occupied))
			continue
		}
		if !listed(ds.ID) {
			continue
		}
		for i, nd := range ds.Doors {
			want.Set(state.DoorStatusOf(ds.ID, nd.Name), state.Bool(f.Panels[i].Open))
		}
		if ds.Door.Present {
			want.Set(state.DoorStatus(ds.ID), state.Bool(f.DoorOpen))
		}
		want.Set(state.Running(ds.ID), state.Bool(f.Running))
		want.Set(state.ActionValue(ds.ID), state.Float(f.ActionValue))
		if ds.Kind == "centrifuge" {
			want.Set(state.RedDotNorth(ds.ID), state.Bool(f.RedDotNorth))
		}
	}
	return want
}

// TestFetchStateMatchesKeyConstructors: the keys the drivers build once
// at construction equal the state.* constructors' keys, and FetchState
// and FetchStateScoped report exactly the reference snapshot, in all
// three labs, before and after doors, panels, setpoints, the sensor
// reading and the arms change.
func TestFetchStateMatchesKeyConstructors(t *testing.T) {
	centrifuges := 0
	for name, spec := range fetchSpecs() {
		lab, err := config.Compile(spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		e, err := Build(lab, StageTestbed, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		scopes := [][]string{
			{"pass_through"},
			{"pass_through", lab.Spec.Arms[0].ID, "pass_through", "no_such_device", "zone_sensor"},
			{lab.Spec.Devices[1].ID, lab.Spec.Arms[len(lab.Spec.Arms)-1].ID, lab.Spec.Devices[1].ID},
		}
		check := func(step string) {
			t.Helper()
			// Twice: the second fetch is sized from the first.
			for i := 0; i < 2; i++ {
				if got, want := e.FetchState(), referenceFetch(t, e, nil); !maps.Equal(got, want) {
					t.Fatalf("%s %s: FetchState\n got %v\nwant %v", name, step, got, want)
				}
			}
			for _, ids := range scopes {
				if got, want := e.FetchStateScoped(ids), referenceFetch(t, e, ids); !maps.Equal(got, want) {
					t.Fatalf("%s %s: FetchStateScoped(%v)\n got %v\nwant %v", name, step, ids, got, want)
				}
			}
		}
		check("at build")
		w := e.World()
		if err := w.SetDoorNamed("pass_through", "east", true); err != nil {
			t.Fatal(err)
		}
		if err := w.SetFixtureValue("pass_through", 12.5); err != nil {
			t.Fatal(err)
		}
		f, _ := w.Fixture("zone_sensor")
		f.Occupied = true
		for _, ds := range spec.Devices {
			if ds.Door.Present {
				if err := w.SetDoor(ds.ID, true); err != nil {
					t.Fatal(err)
				}
			}
		}
		arm := lab.Spec.Arms[0].ID
		if err := e.Execute(action.Command{Device: arm, Action: action.MoveSleep}); err != nil {
			t.Fatal(err)
		}
		check("after changes")
		if _, ok := e.FetchState().Get(state.RedDotNorth("centrifuge")); ok {
			centrifuges++
		}
	}
	if centrifuges == 0 {
		t.Fatal("no lab reported a centrifuge's rotor mark")
	}
}
