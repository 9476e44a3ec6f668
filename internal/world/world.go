// Package world is the ground-truth physical model of a self-driving lab
// deck. It is the substrate everything else observes through noisy,
// partial interfaces: device drivers command it, RABIT never sees it
// directly, and the evaluation harness queries it to decide whether an
// injected bug *actually* caused damage (the paper's Table V severity
// ground truth).
//
// The world is deliberately kinematic, not dynamic: arms sweep capsule
// chains along trajectories, collisions are detected geometrically, and
// consequences (broken glassware, cracked doors, spilled solids) are
// recorded as damage events with severities matching the paper's Table V
// taxonomy.
package world

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/geom"
	"repro/internal/kin"
)

// Severity grades damage, matching Table V of the paper.
type Severity int

// Severity levels from Table V.
const (
	// SeverityLow is wasted chemical material (e.g. solid spilled out of
	// a vial).
	SeverityLow Severity = iota + 1
	// SeverityMediumLow is breakage of glassware (e.g. a dropped vial).
	SeverityMediumLow
	// SeverityMediumHigh is harm to the environment or inexpensive
	// nearby objects: the mounting platform, walls, or vial grids.
	SeverityMediumHigh
	// SeverityHigh is breakage of expensive lab equipment (e.g. the
	// dosing device).
	SeverityHigh
)

// String renders the Table V severity name.
func (s Severity) String() string {
	switch s {
	case SeverityLow:
		return "Low"
	case SeverityMediumLow:
		return "Medium-Low"
	case SeverityMediumHigh:
		return "Medium-High"
	case SeverityHigh:
		return "High"
	default:
		return fmt.Sprintf("Severity(%d)", int(s))
	}
}

// Cost returns a representative replacement cost (USD) for one event of
// this severity, used by the Table I "risk of damage" measurement.
func (s Severity) Cost() float64 {
	switch s {
	case SeverityLow:
		return 5
	case SeverityMediumLow:
		return 40
	case SeverityMediumHigh:
		return 400
	case SeverityHigh:
		return 20000
	default:
		return 0
	}
}

// EventKind classifies damage events.
type EventKind int

// Damage event kinds.
const (
	EventCollision EventKind = iota + 1
	EventGlassBreak
	EventDoorBreak
	EventSpill
	EventOverheat
	EventDrop
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case EventCollision:
		return "collision"
	case EventGlassBreak:
		return "glass-break"
	case EventDoorBreak:
		return "door-break"
	case EventSpill:
		return "spill"
	case EventOverheat:
		return "overheat"
	case EventDrop:
		return "drop"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one damage occurrence in the ground-truth world.
type Event struct {
	Time        time.Duration
	Kind        EventKind
	Severity    Severity
	Description string
	// Involved lists the IDs of arms/fixtures/objects involved.
	Involved []string
}

// String renders the event for reports.
func (e Event) String() string {
	return fmt.Sprintf("[%8s] %-12s %-11s %s", e.Time.Truncate(time.Millisecond),
		e.Kind, e.Severity, e.Description)
}

// World is the ground-truth deck. All methods are safe for concurrent use;
// the concurrent two-arm moves of the multiplexing experiments are driven
// through MoveArmsConcurrently, which itself synchronises the sweep.
type World struct {
	mu sync.Mutex

	now      time.Duration
	rng      *rand.Rand
	objects  map[string]*Object
	fixtures map[string]*Fixture
	arms     map[string]*Arm
	// locations maps a global location name to its deck definition.
	locations map[string]Location
	// floorZ is the deck platform height; anything sweeping below it
	// collides with the platform (Bug D).
	floorZ float64
	walls  []geom.Plane
	events []Event
	// exactMotion disables repeatability noise so arms converge on the
	// commanded target exactly. Campaign worlds run exact so motion plans
	// become pure functions of (deck, script) and can be memoized across
	// scenarios; scenario diversity comes from placement jitter and task
	// parameters instead.
	exactMotion bool
	// planCache, when set, memoizes MoveArmTo's IK plans. A hit is
	// byte-identical to a cold solve; the cache pays off only with
	// exactMotion on (noisy targets never repeat, so keys would only
	// churn the LRU). Its sibling sweepMemo skips the collision sweep
	// of a move already swept clean.
	planCache *kin.PlanCache
	// sweepMemo, when set, answers sweeps whose exact inputs were swept
	// clean before (see SweepMemo).
	sweepMemo *SweepMemo
	// sweepScratch is sweepLocked's reusable working memory.
	sweepScratch sweepScratch
}

// SetExactMotion toggles repeatability noise off (true) or on (false).
func (w *World) SetExactMotion(on bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.exactMotion = on
}

// SetMotionPlanCache routes MoveArmTo IK planning through pc (nil
// restores direct solving). The cache may be shared across worlds:
// exact-key hits replay the cold solver's own answer, which keeps cached
// and uncached runs byte-identical.
func (w *World) SetMotionPlanCache(pc *kin.PlanCache) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.planCache = pc
}

// Location is a named deck position in the global frame, optionally owned
// by a fixture (a slot inside or on a device).
type Location struct {
	Name string
	// Pos is the tool-center-point position an arm should command to
	// interact with this location, in the global frame.
	Pos geom.Vec3
	// Owner is the fixture that hosts this location ("" for free deck
	// positions such as grid-independent waypoints).
	Owner string
	// Inside reports whether the location lies inside the owner fixture
	// (so reaching it requires the door to be open and counts as the arm
	// being "inside the device").
	Inside bool
}

// New creates an empty world with the platform at z=0 and a deterministic
// noise source.
func New(seed int64) *World {
	return &World{
		rng:       rand.New(rand.NewSource(seed)),
		objects:   make(map[string]*Object),
		fixtures:  make(map[string]*Fixture),
		arms:      make(map[string]*Arm),
		locations: make(map[string]Location),
	}
}

// Now returns the current simulated time.
func (w *World) Now() time.Duration {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.now
}

// Advance moves simulated time forward by d.
func (w *World) Advance(d time.Duration) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.now += d
}

// AddWall registers a wall plane; the lab interior is on the positive side.
func (w *World) AddWall(p geom.Plane) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.walls = append(w.walls, p)
}

// SetFloor sets the platform height.
func (w *World) SetFloor(z float64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.floorZ = z
}

// AddLocation registers a named deck location.
func (w *World) AddLocation(l Location) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, dup := w.locations[l.Name]; dup {
		return fmt.Errorf("world: duplicate location %q", l.Name)
	}
	w.locations[l.Name] = l
	return nil
}

// LocationNames returns all registered location names, sorted.
func (w *World) LocationNames() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	names := make([]string, 0, len(w.locations))
	for n := range w.locations {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// LocationAt returns the location definition.
func (w *World) LocationAt(name string) (Location, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	l, ok := w.locations[name]
	return l, ok
}

// recordEvent appends a damage event (callers hold w.mu).
func (w *World) recordEvent(k EventKind, s Severity, desc string, involved ...string) {
	w.events = append(w.events, Event{
		Time: w.now, Kind: k, Severity: s, Description: desc, Involved: involved,
	})
}

// Events returns a copy of all damage events so far.
func (w *World) Events() []Event {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]Event, len(w.events))
	copy(out, w.events)
	return out
}

// DamageCost returns the total replacement cost of all damage so far.
func (w *World) DamageCost() float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	var c float64
	for _, e := range w.events {
		c += e.Severity.Cost()
	}
	return c
}

// MaxSeverity returns the worst severity recorded (0 when undamaged).
func (w *World) MaxSeverity() Severity {
	w.mu.Lock()
	defer w.mu.Unlock()
	var worst Severity
	for _, e := range w.events {
		if e.Severity > worst {
			worst = e.Severity
		}
	}
	return worst
}

// ResetEvents clears the damage log (between evaluation runs).
func (w *World) ResetEvents() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.events = nil
}
