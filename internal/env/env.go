// Package env assembles RABIT's three deployment stages (Table I of the
// paper): the Simulator (fast, low fidelity, zero damage exposure), the
// low-fidelity Testbed (educational arms, cardboard mockups, cheap
// damage), and the Production deck (precise devices, slow real chemistry,
// expensive damage). Each stage is a world built from a lab configuration
// plus stage-specific fidelity parameters, exposed through a single
// Environment type that the engine executes commands against.
package env

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"

	"repro/internal/action"
	"repro/internal/config"
	"repro/internal/device"
	"repro/internal/geom"
	"repro/internal/kin"
	"repro/internal/state"
	"repro/internal/world"
)

// Stage identifies one of the paper's three deployment stages.
type Stage int

// The three stages of Table I.
const (
	StageSimulator Stage = iota + 1
	StageTestbed
	StageProduction
)

// String names the stage.
func (s Stage) String() string {
	switch s {
	case StageSimulator:
		return "Simulator"
	case StageTestbed:
		return "Testbed"
	case StageProduction:
		return "Production"
	default:
		return fmt.Sprintf("Stage(%d)", int(s))
	}
}

// Params are the fidelity knobs that make the Table I rows measurable.
type Params struct {
	// ProcessTimeScale multiplies script-specified process durations
	// (stirring, heating): the simulator skips them, the testbed mocks
	// them briefly, production waits them out.
	ProcessTimeScale float64
	// MeasurementNoise is the relative 1σ error of measurements
	// (solubility readings) — "accuracy of results".
	MeasurementNoise float64
	// ModelError is the stage's modelling-fidelity floor: how far its
	// idea of a pose may sit from reality — "device precision and
	// quality". The simulator executes its virtual arm exactly, but its
	// correspondence to the physical deck is no better than this.
	ModelError float64
	// DamageCostScale scales damage costs: a virtual crash costs
	// nothing, a cardboard mockup almost nothing, production everything
	// — "risk of damage".
	DamageCostScale float64
}

// DefaultParams returns the canonical per-stage fidelity parameters.
func DefaultParams(s Stage) Params {
	switch s {
	case StageSimulator:
		return Params{ProcessTimeScale: 0, MeasurementNoise: 0.20, ModelError: 0.004, DamageCostScale: 0}
	case StageTestbed:
		return Params{ProcessTimeScale: 0.1, MeasurementNoise: 0.08, ModelError: 0.001, DamageCostScale: 0.02}
	case StageProduction:
		return Params{ProcessTimeScale: 1, MeasurementNoise: 0.01, ModelError: 0, DamageCostScale: 1}
	default:
		return Params{}
	}
}

// Env is one instantiated stage.
type Env struct {
	mu      sync.Mutex
	stage   Stage
	params  Params
	lab     *config.Lab
	w       *world.World
	drivers map[string]device.Driver
	// sensorIDs lists the presence sensors; scoped fetches always include
	// them because their readings are exogenous inputs to rule checks.
	sensorIDs []string
	// fetchLen is the size of the last FetchState snapshot.
	fetchLen int
	rng      *rand.Rand
	// paceSpeedup > 0 makes Execute consume real wall-clock time:
	// simulated device time divided by the speedup factor. Used by the
	// latency experiment, where overhead percentages only mean something
	// against real execution time.
	paceSpeedup float64
}

// profileCache memoizes arm kinematic profiles by (model, base pose).
// Profiles are immutable after construction and already shared between
// the world's arm and its driver within one environment, so sharing them
// across environments is equally sound — and a campaign building tens of
// thousands of environments would otherwise re-pay NewProfile's IK
// anchor solves on every Build.
var profileCache sync.Map // profileKey -> *kin.Profile

type profileKey struct {
	model kin.Model
	base  geom.Vec3
}

func profileFor(model kin.Model, base geom.Vec3) (*kin.Profile, error) {
	key := profileKey{model: model, base: base}
	if p, ok := profileCache.Load(key); ok {
		return p.(*kin.Profile), nil
	}
	p, err := kin.NewProfile(model, geom.PoseAt(base))
	if err != nil {
		return nil, err
	}
	actual, _ := profileCache.LoadOrStore(key, p)
	return actual.(*kin.Profile), nil
}

// Build constructs a stage from a compiled lab configuration.
func Build(lab *config.Lab, stage Stage, seed int64) (*Env, error) {
	w := world.New(seed)
	w.SetFloor(lab.Spec.FloorZ)
	for _, ws := range lab.Spec.Walls {
		w.AddWall(geom.Plane{N: ws.Normal.V3().Unit(), D: ws.Offset})
	}
	e := &Env{
		stage:   stage,
		params:  DefaultParams(stage),
		lab:     lab,
		w:       w,
		drivers: make(map[string]device.Driver),
		rng:     rand.New(rand.NewSource(seed + 1)),
	}

	for _, as := range lab.Spec.Arms {
		model, err := kin.ParseModel(as.Model)
		if err != nil {
			return nil, fmt.Errorf("env: arm %s: %w", as.ID, err)
		}
		profile, err := profileFor(model, as.Base.V3())
		if err != nil {
			return nil, fmt.Errorf("env: arm %s: %w", as.ID, err)
		}
		arm, err := w.AddArm(as.ID, profile)
		if err != nil {
			return nil, fmt.Errorf("env: %w", err)
		}
		if as.Gripper.FingerDrop > 0 {
			arm.FingerDrop = as.Gripper.FingerDrop
		}
		if as.Gripper.FingerRadius > 0 {
			arm.FingerRadius = as.Gripper.FingerRadius
		}
		e.drivers[as.ID] = device.NewArmDriver(
			as.ID, as.Base.V3(), profile, device.BehaviorForModel(model), lab)
	}

	for _, ds := range lab.Spec.Devices {
		f := &world.Fixture{
			ID:           ds.ID,
			Kind:         fixtureKind(ds.Kind),
			Body:         ds.Cuboid.AABB(),
			Expensive:    ds.Expensive,
			MaxSafeValue: ds.MaxSafeValue,
			Rounded:      ds.Shape == "cylinder" || ds.Shape == "dome",
		}
		if ds.Interior != nil {
			f.Interior = ds.Interior.AABB()
		}
		if ds.Door.Present {
			f.Door = doorSide(ds.Door.Side)
		}
		var panels []string
		for _, nd := range ds.Doors {
			f.Panels = append(f.Panels, world.DoorPanel{Name: nd.Name, Side: doorSide(nd.Side)})
			panels = append(panels, nd.Name)
		}
		if f.Kind == world.KindCentrifuge {
			f.RedDotNorth = true
		}
		if err := w.AddFixture(f); err != nil {
			return nil, fmt.Errorf("env: %w", err)
		}
		if ds.Type == "sensor" {
			e.drivers[ds.ID] = device.NewSensorDriver(ds.ID)
			e.sensorIDs = append(e.sensorIDs, ds.ID)
			continue
		}
		firmware := ds.MaxSafeValue * 1.2 // firmware limits sit above the physical rating
		hasDoor := ds.Door.Present || len(ds.Doors) > 0
		e.drivers[ds.ID] = device.NewFixtureDriver(ds.ID, hasDoor, firmware, panels...)
	}

	for _, ls := range lab.Spec.Locations {
		if err := w.AddLocation(world.Location{
			Name:   ls.Name,
			Pos:    ls.DeckPos.V3(),
			Owner:  ls.Owner,
			Inside: ls.Inside,
		}); err != nil {
			return nil, fmt.Errorf("env: %w", err)
		}
	}

	for _, cs := range lab.Spec.Containers {
		o := &world.Object{
			ID:         cs.ID,
			HeightM:    cs.Height,
			RadiusM:    cs.Radius,
			CapacityMg: cs.CapacityMg,
			CapacityML: cs.CapacityML,
			SolidMg:    cs.InitialSolidMg,
			LiquidML:   cs.InitialLiquidML,
			Capped:     cs.Stopper,
			At:         cs.Location,
		}
		if err := w.AddObject(o); err != nil {
			return nil, fmt.Errorf("env: %w", err)
		}
		e.drivers[cs.ID] = device.NewContainerDriver(cs.ID)
	}

	return e, nil
}

// fixtureKind maps the config kind strings to world kinds.
func fixtureKind(s string) world.FixtureKind {
	switch s {
	case "dosing":
		return world.KindDosing
	case "pump":
		return world.KindPump
	case "hotplate":
		return world.KindHotplate
	case "thermoshaker":
		return world.KindThermoshaker
	case "centrifuge":
		return world.KindCentrifuge
	case "grid":
		return world.KindGrid
	case "decapper":
		return world.KindDecapper
	case "spin_coater":
		return world.KindSpinCoater
	case "nozzle":
		return world.KindNozzle
	case "presence":
		return world.KindSensor
	default:
		return world.KindGeneric
	}
}

// doorSide maps config door sides to world door sides.
func doorSide(s string) world.DoorSide {
	switch s {
	case "x-":
		return world.DoorXNeg
	case "x+":
		return world.DoorXPos
	case "y-":
		return world.DoorYNeg
	case "y+":
		return world.DoorYPos
	case "z+":
		return world.DoorZPos
	default:
		return world.DoorNone
	}
}

// Stage returns the environment's stage.
func (e *Env) Stage() Stage { return e.stage }

// Params returns the stage parameters.
func (e *Env) Params() Params { return e.params }

// Lab returns the compiled configuration.
func (e *Env) Lab() *config.Lab { return e.lab }

// World exposes ground truth — for the evaluation harness only; RABIT
// itself must go through Execute/FetchState.
func (e *Env) World() *world.World { return e.w }

// Driver returns the driver for a device.
func (e *Env) Driver(id string) (device.Driver, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	d, ok := e.drivers[id]
	return d, ok
}

// InjectFault arms a malfunction on one device.
func (e *Env) InjectFault(deviceID string, f device.Fault) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	d, ok := e.drivers[deviceID]
	if !ok {
		return fmt.Errorf("env: no device %q", deviceID)
	}
	d.InjectFault(f)
	return nil
}

// SetPacing makes Execute consume wall-clock time: each command sleeps
// its simulated duration divided by speedup. Zero disables pacing.
func (e *Env) SetPacing(speedup float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.paceSpeedup = speedup
}

// Execute dispatches one command to its device driver, applying the
// stage's process-time scale to timed actions.
func (e *Env) Execute(cmd action.Command) error {
	e.mu.Lock()
	d, ok := e.drivers[cmd.Device]
	pace := e.paceSpeedup
	e.mu.Unlock()
	if !ok {
		return fmt.Errorf("env: no device %q", cmd.Device)
	}
	before := e.w.Now()
	err := d.Execute(e.w, cmd)
	if cmd.Duration > 0 {
		e.w.Advance(time.Duration(float64(cmd.Duration) * e.params.ProcessTimeScale))
	}
	if pace > 0 {
		if elapsed := e.w.Now() - before; elapsed > 0 {
			time.Sleep(time.Duration(float64(elapsed) / pace))
		}
	}
	return err
}

// ExecuteConcurrent runs several robot moves simultaneously — the
// capability space multiplexing exists to make safe. All commands must be
// arm motion commands.
func (e *Env) ExecuteConcurrent(cmds []action.Command) error {
	moves := make([]world.ConcurrentMove, 0, len(cmds))
	for _, cmd := range cmds {
		if cmd.Action != action.MoveRobot && cmd.Action != action.MoveRobotInside {
			return fmt.Errorf("env: concurrent execution supports only moves, got %q", cmd.Action)
		}
		e.mu.Lock()
		d, ok := e.drivers[cmd.Device].(*device.ArmDriver)
		e.mu.Unlock()
		if !ok {
			return fmt.Errorf("env: %q is not an arm", cmd.Device)
		}
		target, err := d.DeckTarget(cmd)
		if err != nil {
			return err
		}
		opts := world.MoveOptions{Roll: cmd.Roll}
		if cmd.Object != "" {
			opts.IgnoreObjects = []string{cmd.Object}
		}
		moves = append(moves, world.ConcurrentMove{ArmID: cmd.Device, Target: target, Opts: opts})
	}
	return e.w.MoveArmsConcurrently(moves)
}

// FetchState gathers every device's observable state — the paper's
// FetchState() built from per-device status commands over the recorded
// connection parameters.
func (e *Env) FetchState() state.Snapshot {
	e.mu.Lock()
	defer e.mu.Unlock()
	// Every fetch reads the same drivers, so the last snapshot's size is
	// this one's.
	s := make(state.Snapshot, e.fetchLen)
	for _, d := range e.drivers {
		d.ReadState(e.w, s)
	}
	e.fetchLen = len(s)
	return s
}

// FetchStateScoped gathers the observable state of just the listed
// devices — the per-command status poll of the engine's sharded pipeline
// — plus every presence sensor (exogenous readings feed rule checks on
// all paths). Unknown IDs (containers without drivers never registered,
// locations) are skipped silently, mirroring FetchState's behaviour of
// only reporting what a driver answers for.
func (e *Env) FetchStateScoped(ids []string) state.Snapshot {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := state.Snapshot{}
	// A scope lists a handful of devices, so a scan finds repeats faster
	// than a set would.
	for i, id := range ids {
		if slices.Contains(ids[:i], id) {
			continue
		}
		if d, ok := e.drivers[id]; ok {
			d.ReadState(e.w, s)
		}
	}
	for _, id := range e.sensorIDs {
		if !slices.Contains(ids, id) {
			e.drivers[id].ReadState(e.w, s)
		}
	}
	return s
}

// Now returns the stage's current simulated time.
func (e *Env) Now() time.Duration { return e.w.Now() }

// MeasureSolubility reads the solubility of a container's contents with
// the stage's measurement noise.
func (e *Env) MeasureSolubility(objectID string) (float64, error) {
	v, err := e.w.MeasureSolubility(objectID)
	if err != nil {
		return 0, err
	}
	e.mu.Lock()
	noise := e.rng.NormFloat64() * e.params.MeasurementNoise
	e.mu.Unlock()
	v *= 1 + noise
	if v < 0 {
		v = 0
	}
	if v > 1 {
		v = 1
	}
	return v, nil
}

// DamageCost returns the stage-scaled damage cost incurred so far.
func (e *Env) DamageCost() float64 {
	return e.w.DamageCost() * e.params.DamageCostScale
}
