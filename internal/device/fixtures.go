package device

import (
	"fmt"

	"repro/internal/action"
	"repro/internal/state"
	"repro/internal/world"
)

// FixtureDriver drives a stationary automation device: dosing device,
// syringe pump, hotplate, thermoshaker, centrifuge, decapper, spin
// coater, nozzles.
type FixtureDriver struct {
	id      string
	hasDoor bool
	// The state keys ReadState reports, built once: the sole door's (only
	// for a door without named panels), the named panels', run state,
	// setpoint and the centrifuge rotor mark.
	doorKey                         state.Key
	panels                          []panelKey
	runningKey, valueKey, redDotKey state.Key
	// firmwareLimit is the device's own built-in safety limit (e.g. the
	// IKA hotplate's safe-temperature setting). It usually sits above
	// the conservative threshold RABIT is configured with — built-in
	// mechanisms "work in tandem" with RABIT, but do not subsume it.
	firmwareLimit float64
	fault         Fault
}

var _ Driver = (*FixtureDriver)(nil)

// panelKey is one named door panel's state key.
type panelKey struct {
	name string
	key  state.Key
}

// NewFixtureDriver builds a driver for a fixture already placed in the
// world; panels names its door panels when it has several.
func NewFixtureDriver(id string, hasDoor bool, firmwareLimit float64, panels ...string) *FixtureDriver {
	d := &FixtureDriver{
		id: id, hasDoor: hasDoor, firmwareLimit: firmwareLimit,
		runningKey: state.Running(id),
		valueKey:   state.ActionValue(id),
		redDotKey:  state.RedDotNorth(id),
	}
	if hasDoor && len(panels) == 0 {
		d.doorKey = state.DoorStatus(id)
	}
	for _, name := range panels {
		d.panels = append(d.panels, panelKey{name: name, key: state.DoorStatusOf(id, name)})
	}
	return d
}

// panelKey returns the state key of door panel name ("" for the sole
// door): the one built at construction, or a new one for a panel the
// driver was not built with.
func (d *FixtureDriver) panelKey(name string) state.Key {
	if name == "" && d.doorKey != "" {
		return d.doorKey
	}
	for _, p := range d.panels {
		if p.name == name {
			return p.key
		}
	}
	return state.DoorStatusOf(d.id, name)
}

// ID implements Driver.
func (d *FixtureDriver) ID() string { return d.id }

// InjectFault implements Driver.
func (d *FixtureDriver) InjectFault(f Fault) { d.fault = f }

// Execute implements Driver.
func (d *FixtureDriver) Execute(w *world.World, cmd action.Command) error {
	switch cmd.Action {
	case action.OpenDoor, action.CloseDoor:
		if !d.hasDoor {
			return fmt.Errorf("device: %s has no door", d.id)
		}
		if d.fault == FaultDoorStuck {
			// The motor is dead but the controller acknowledges.
			return nil
		}
		return w.SetDoorNamed(d.id, cmd.Door, cmd.Action == action.OpenDoor)

	case action.StartAction:
		if d.fault == FaultActionStuck {
			return nil
		}
		return w.StartFixtureAction(d.id)

	case action.StopAction:
		if d.fault == FaultActionStuck {
			return nil
		}
		return w.StopFixtureAction(d.id)

	case action.SetActionValue:
		if d.firmwareLimit > 0 && cmd.Value > d.firmwareLimit {
			return fmt.Errorf("device: %s firmware rejects setpoint %.1f (limit %.1f)",
				d.id, cmd.Value, d.firmwareLimit)
		}
		return w.SetFixtureValue(d.id, cmd.Value)

	case action.DoseSolid:
		return w.DoseSolidInto(d.id, cmd.Value)

	case action.DoseLiquid:
		if cmd.Object == "" {
			return fmt.Errorf("device: %s dose_liquid needs a target container", d.id)
		}
		return w.DoseLiquidInto(d.id, cmd.Object, cmd.Value)

	case action.TransferSubstance:
		return w.TransferSubstance(cmd.FromContainer, cmd.ToContainer, cmd.Value)

	case action.ReadStatus:
		return nil

	default:
		return unknownAction(d.id, cmd.Action)
	}
}

// ReadState implements Driver: doors, run state, setpoints, and the
// centrifuge rotor mark are all observable via status commands.
func (d *FixtureDriver) ReadState(w *world.World, into state.Snapshot) {
	f, ok := w.FixtureStatus(d.id)
	if !ok {
		return
	}
	if d.hasDoor {
		if panels := f.Panels; len(panels) > 0 {
			for _, p := range panels {
				into.Set(d.panelKey(p.Name), state.Bool(p.Open))
			}
		} else {
			into.Set(d.panelKey(""), state.Bool(f.DoorOpen))
		}
	}
	into.Set(d.runningKey, state.Bool(f.Running))
	into.Set(d.valueKey, state.Float(f.ActionValue))
	if f.Kind == world.KindCentrifuge {
		into.Set(d.redDotKey, state.Bool(f.RedDotNorth))
	}
}

// SensorDriver exposes a presence sensor: a read-only device whose only
// contribution is its observation. It is the "sensors as a new device
// class" extension the paper's Section V-B sketches for protecting
// humans near the deck.
type SensorDriver struct {
	id          string
	occupiedKey state.Key
	fault       Fault
}

var _ Driver = (*SensorDriver)(nil)

// NewSensorDriver builds a driver for a presence sensor.
func NewSensorDriver(id string) *SensorDriver {
	return &SensorDriver{id: id, occupiedKey: state.ZoneOccupied(id)}
}

// ID implements Driver.
func (d *SensorDriver) ID() string { return d.id }

// InjectFault implements Driver. FaultActionStuck freezes the reading —
// the sensor malfunction class that made the Berlinguette Lab abandon
// their sensors.
func (d *SensorDriver) InjectFault(f Fault) { d.fault = f }

// Execute implements Driver: sensors only answer status queries.
func (d *SensorDriver) Execute(w *world.World, cmd action.Command) error {
	if cmd.Action == action.ReadStatus {
		return nil
	}
	return unknownAction(d.id, cmd.Action)
}

// ReadState implements Driver: the zone-occupancy reading.
func (d *SensorDriver) ReadState(w *world.World, into state.Snapshot) {
	f, ok := w.FixtureStatus(d.id)
	if !ok {
		return
	}
	occupied := f.Occupied
	if d.fault == FaultActionStuck {
		// A frozen sensor keeps reporting "clear".
		occupied = false
	}
	into.Set(d.occupiedKey, state.Bool(occupied))
}

// ContainerDriver handles cap/decap commands addressed to a container (a
// decapper station or a researcher's hands, from the command stream's
// perspective).
type ContainerDriver struct {
	id    string
	fault Fault
}

var _ Driver = (*ContainerDriver)(nil)

// NewContainerDriver builds a driver for a container.
func NewContainerDriver(id string) *ContainerDriver { return &ContainerDriver{id: id} }

// ID implements Driver.
func (d *ContainerDriver) ID() string { return d.id }

// InjectFault implements Driver.
func (d *ContainerDriver) InjectFault(f Fault) { d.fault = f }

// Execute implements Driver.
func (d *ContainerDriver) Execute(w *world.World, cmd action.Command) error {
	switch cmd.Action {
	case action.CapContainer:
		return w.SetCap(d.id, true)
	case action.DecapContainer:
		return w.SetCap(d.id, false)
	case action.ReadStatus:
		return nil
	default:
		return unknownAction(d.id, cmd.Action)
	}
}

// ReadState implements Driver: containers have no sensors at all; their
// stopper state and contents are dead-reckoned by RABIT's model.
func (d *ContainerDriver) ReadState(w *world.World, into state.Snapshot) {}
