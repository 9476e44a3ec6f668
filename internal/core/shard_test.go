package core

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/action"
	"repro/internal/geom"
	"repro/internal/rules"
	"repro/internal/state"
)

// fleetLab models a deck of n independent action devices (d0..dN-1, no
// doors, no hosted containers) plus one door device "dd" — the shape the
// sharded pipeline is built for.
type fleetLab struct{ n int }

var _ rules.LabModel = fleetLab{}

func (l fleetLab) DeviceType(id string) (rules.DeviceType, bool) {
	if id == "dd" {
		return rules.TypeDosingSystem, true
	}
	if strings.HasPrefix(id, "d") {
		return rules.TypeActionDevice, true
	}
	return 0, false
}
func (l fleetLab) DeviceHasDoor(id string) bool { return id == "dd" }
func (l fleetLab) DeviceDoors(id string) []string {
	if id == "dd" {
		return []string{""}
	}
	return nil
}
func (fleetLab) LocationDoor(loc string) string                     { return "" }
func (fleetLab) ArmIDs() []string                                   { return nil }
func (fleetLab) LocationOwner(loc string) (string, bool)            { return "", false }
func (fleetLab) LocationIsInside(loc string) bool                   { return false }
func (fleetLab) LocationPos(a, l string) (geom.Vec3, bool)          { return geom.Vec3{}, false }
func (fleetLab) MatchLocation(a string, p geom.Vec3) (string, bool) { return "", false }
func (fleetLab) DeviceBoxes(a string) []rules.NamedBox              { return nil }
func (fleetLab) SleepBox(a, o string) (geom.AABB, bool)             { return geom.AABB{}, false }
func (fleetLab) ArmGeometry(a string) rules.ArmGeom                 { return rules.ArmGeom{} }
func (fleetLab) HostsContainers(id string) bool                     { return false }
func (fleetLab) ObjectGeometry(id string) (rules.ObjectGeom, bool)  { return rules.ObjectGeom{}, false }
func (fleetLab) ActionThreshold(id string) (float64, bool)          { return 100, true }
func (fleetLab) FloorZ(a string) float64                            { return -10 }
func (fleetLab) Walls(a string) []geom.Plane                        { return nil }
func (fleetLab) Zone(a string) (geom.Plane, bool)                   { return geom.Plane{}, false }

// concEnv is a concurrency-safe fake environment: ground truth lives in
// one locked snapshot, and scoped fetches filter by key owner — the same
// contract the real env provides.
type concEnv struct {
	mu  sync.Mutex
	st  state.Snapshot
	now time.Duration
}

func newConcEnv() *concEnv { return &concEnv{st: state.Snapshot{}} }

func (f *concEnv) Execute(cmd action.Command) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	switch cmd.Action {
	case action.SetActionValue:
		f.st.Set(state.ActionValue(cmd.Device), state.Float(cmd.Value))
	case action.StartAction:
		f.st.Set(state.Running(cmd.Device), state.Bool(true))
	case action.StopAction:
		f.st.Set(state.Running(cmd.Device), state.Bool(false))
	case action.OpenDoor:
		f.st.Set(state.DoorStatus(cmd.Device), state.Bool(true))
	case action.CloseDoor:
		f.st.Set(state.DoorStatus(cmd.Device), state.Bool(false))
	}
	f.now += time.Millisecond
	return nil
}

func (f *concEnv) FetchState() state.Snapshot {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.st.Clone()
}

func (f *concEnv) FetchStateScoped(ids []string) state.Snapshot {
	f.mu.Lock()
	defer f.mu.Unlock()
	want := make(map[string]bool, len(ids))
	for _, id := range ids {
		want[id] = true
	}
	out := state.Snapshot{}
	for k, v := range f.st {
		if args := k.Args(); len(args) > 0 && want[args[0]] {
			out[k] = v
		}
	}
	return out
}

func (f *concEnv) Now() time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

// drawScripts draws one seed's concurrent workload: a random
// set/start/stop script for each fleet device (disjoint devices, so any
// interleaving is valid), plus a door script on "dd" whose OpenDoor
// shards and whose CloseDoor takes the global path (rule 2 reads every
// arm's state) — the mix that exercises both pipelines at once.
func drawScripts(rng *rand.Rand, devices int) [][]action.Command {
	scripts := make([][]action.Command, 0, devices+1)
	for g := 0; g < devices; g++ {
		id := fmt.Sprintf("d%d", g)
		cmds := make([]action.Command, 20+rng.Intn(40))
		for c := range cmds {
			switch rng.Intn(3) {
			case 0:
				cmds[c] = action.Command{Device: id, Action: action.SetActionValue, Value: float64(rng.Intn(101))}
			case 1:
				cmds[c] = action.Command{Device: id, Action: action.StartAction}
			default:
				cmds[c] = action.Command{Device: id, Action: action.StopAction}
			}
		}
		scripts = append(scripts, cmds)
	}
	var door []action.Command
	for c := 10 + rng.Intn(30); c > 0; c-- {
		door = append(door,
			action.Command{Device: "dd", Action: action.OpenDoor},
			action.Command{Device: "dd", Action: action.CloseDoor},
		)
	}
	return append(scripts, door)
}

// runScripts runs each script through e and env — all at once from
// separate goroutines when concurrent, else one after another — and
// returns the first script error.
func runScripts(e *Engine, env *concEnv, scripts [][]action.Command, concurrent bool) error {
	run := func(cmds []action.Command) error {
		for _, cmd := range cmds {
			if err := e.Before(cmd); err != nil {
				return err
			}
			if err := env.Execute(cmd); err != nil {
				return err
			}
			if err := e.After(cmd); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, len(scripts))
	var wg sync.WaitGroup
	for g, cmds := range scripts {
		if !concurrent {
			errs[g] = run(cmds)
			continue
		}
		wg.Add(1)
		go func(g int, cmds []action.Command) {
			defer wg.Done()
			errs[g] = run(cmds)
		}(g, cmds)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			return fmt.Errorf("script %d: %w", g, err)
		}
	}
	return nil
}

// TestShardedConcurrentScripts is the sharded pipeline's interleaving
// property: for every seed, the drawn scripts run concurrently through
// one sharded engine and must end with no alert, every command
// processed, and a model equal both to ground truth and to a
// WithSerialPipeline run of the same per-script command lists. Run
// under -race it is also the pipeline's data-race test.
func TestShardedConcurrentScripts(t *testing.T) {
	const devices = 8
	rb := rules.MustNewRulebase(fleetLab{n: devices}, rules.Config{Generation: rules.GenInitial})
	fresh := func(opts ...Option) (*Engine, *concEnv) {
		env := newConcEnv()
		env.st.Set(state.DoorStatus("dd"), state.Bool(false))
		for g := 0; g < devices; g++ {
			id := fmt.Sprintf("d%d", g)
			env.st.Set(state.Running(id), state.Bool(false))
			env.st.Set(state.ActionValue(id), state.Float(0))
		}
		e := New(rb, env, opts...)
		e.Start()
		return e, env
	}
	for seed := int64(1); seed <= 6; seed++ {
		scripts := drawScripts(rand.New(rand.NewSource(seed)), devices)
		total := 0
		for _, cmds := range scripts {
			total += len(cmds)
		}
		sharded, env := fresh()
		if err := runScripts(sharded, env, scripts, true); err != nil {
			t.Fatalf("seed %d: sharded %v", seed, err)
		}
		if a := sharded.Alerts(); len(a) > 0 {
			t.Fatalf("seed %d: unexpected alerts %v", seed, a)
		}
		if _, n := sharded.CheckOverhead(); n != total {
			t.Errorf("seed %d: commands processed = %d, want %d", seed, n, total)
		}
		serial, serialEnv := fresh(WithSerialPipeline())
		if err := runScripts(serial, serialEnv, scripts, false); err != nil {
			t.Fatalf("seed %d: serial %v", seed, err)
		}
		model, ref := sharded.Model(), serial.Model()
		for k, v := range env.FetchState() {
			if got, ok := model.Get(k); !ok || !got.Equal(v) {
				t.Errorf("seed %d: model[%s] = %v, ground truth %v", seed, k, got, v)
			}
		}
		if len(model) != len(ref) {
			t.Errorf("seed %d: sharded model has %d keys, serial %d", seed, len(model), len(ref))
		}
		for k, v := range ref {
			if got, ok := model.Get(k); !ok || !got.Equal(v) {
				t.Errorf("seed %d: model[%s] = %v, serial %v", seed, k, got, v)
			}
		}
	}
}

// TestShardedRejectsUnsafeCommand checks the sharded path still raises
// Invalid Command! and halts the run.
func TestShardedRejectsUnsafeCommand(t *testing.T) {
	env := newConcEnv()
	env.st.Set(state.Running("d0"), state.Bool(false))
	rb := rules.MustNewRulebase(fleetLab{n: 1}, rules.Config{Generation: rules.GenInitial})
	e := New(rb, env)
	e.Start()
	// Threshold is 100 (fleetLab); rule 11 must fire on the sharded path.
	err := e.Before(action.Command{Device: "d0", Action: action.SetActionValue, Value: 500})
	if err == nil {
		t.Fatal("over-threshold setpoint was not blocked")
	}
	a, ok := AsAlert(err)
	if !ok || a.Kind != AlertInvalidCommand {
		t.Fatalf("want invalid-command alert, got %v", err)
	}
	if e.Stopped() == nil {
		t.Fatal("engine did not halt")
	}
	// The shard must have been released and the stop must gate new work.
	err = e.Before(action.Command{Device: "d0", Action: action.StartAction})
	if err == nil || !strings.Contains(err.Error(), "stopped") {
		t.Fatalf("want ErrStopped, got %v", err)
	}
}

// TestShardedMalfunctionAlert checks the sharded After's compare path.
func TestShardedMalfunctionAlert(t *testing.T) {
	env := newConcEnv()
	env.st.Set(state.Running("d0"), state.Bool(false))
	rb := rules.MustNewRulebase(fleetLab{n: 1}, rules.Config{Generation: rules.GenInitial})
	e := New(rb, env)
	e.Start()
	cmd := action.Command{Device: "d0", Action: action.StartAction}
	if err := e.Before(cmd); err != nil {
		t.Fatal(err)
	}
	// The device silently ignores the command: Running stays false, so
	// the expectation (Running=true) must mismatch.
	err := e.After(cmd)
	a, ok := AsAlert(err)
	if !ok || a.Kind != AlertMalfunction {
		t.Fatalf("want malfunction alert, got %v", err)
	}
	if len(a.Mismatches) == 0 || a.Mismatches[0].Key != state.Running("d0") {
		t.Fatalf("mismatch list wrong: %v", a.Mismatches)
	}
}

// TestFailSafeOutsideCheckWindow is the check-overhead accounting
// regression test: the fail-safe handler's runtime must NOT be charged
// to the engine's check-time counter (the seed ran the handler inside
// the deferred span), and the handler must run outside engine locks so
// it can itself talk to the engine.
func TestFailSafeOutsideCheckWindow(t *testing.T) {
	const handlerDelay = 80 * time.Millisecond
	env := newConcEnv()
	env.st.Set(state.Running("d0"), state.Bool(false))
	rb := rules.MustNewRulebase(fleetLab{n: 1}, rules.Config{Generation: rules.GenInitial})
	var e *Engine
	invoked := make(chan Alert, 1)
	e = New(rb, env, WithFailSafe(func(a Alert) {
		// Re-entering the engine must not deadlock: the stop gate answers.
		if err := e.Before(action.Command{Device: "d0", Action: action.StopAction}); err == nil {
			t.Error("fail-safe re-entry was not gated by the stop")
		}
		time.Sleep(handlerDelay)
		invoked <- a
	}))
	e.Start()
	err := e.Before(action.Command{Device: "d0", Action: action.SetActionValue, Value: 500})
	if err == nil {
		t.Fatal("unsafe command not blocked")
	}
	select {
	case a := <-invoked:
		if a.Kind != AlertInvalidCommand {
			t.Errorf("handler got %v", a.Kind)
		}
	default:
		t.Fatal("fail-safe handler never ran")
	}
	check, _ := e.CheckOverhead()
	if check >= handlerDelay {
		t.Errorf("check overhead %v includes the fail-safe handler's %v", check, handlerDelay)
	}
}

// TestSerialPipelineOptionForcesGlobalPath ensures WithSerialPipeline
// really disables sharding (the parity baseline depends on it).
func TestSerialPipelineOptionForcesGlobalPath(t *testing.T) {
	env := newConcEnv()
	env.st.Set(state.Running("d0"), state.Bool(false))
	rb := rules.MustNewRulebase(fleetLab{n: 1}, rules.Config{Generation: rules.GenInitial})
	e := New(rb, env, WithSerialPipeline())
	e.Start()
	cmd := action.Command{Device: "d0", Action: action.StartAction}
	if e.routeSharded(cmd) {
		t.Fatal("serial engine still routes sharded")
	}
	if err := e.Before(cmd); err != nil {
		t.Fatal(err)
	}
	if err := env.Execute(cmd); err != nil {
		t.Fatal(err)
	}
	if err := e.After(cmd); err != nil {
		t.Fatal(err)
	}
	if !e.Model().GetBool(state.Running("d0")) {
		t.Fatal("serial pipeline did not commit")
	}
}
