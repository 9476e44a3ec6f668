package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/action"
	"repro/internal/geom"
	"repro/internal/kin"
	"repro/internal/labs"
	"repro/internal/obs"
	"repro/internal/state"
)

// parkForCrossing drives the footnote-2 approach legs so the arm sits
// just south of the centrifuge; the crossing leg is then accepted or
// rejected purely by the centrifuge's door state.
func parkForCrossing(t *testing.T, s *Simulator, m state.Snapshot) {
	t.Helper()
	for _, cmd := range []action.Command{
		moveOn("viperx", geom.V(0.63, -0.38, 0.30)),
		moveOn("viperx", geom.V(0.63, -0.38, 0.12)),
	} {
		if err := s.ValidTrajectory(cmd, m); err != nil {
			t.Fatalf("approach leg %v rejected: %v", cmd.Target, err)
		}
		s.Observe(cmd, m)
	}
}

func TestMotionCacheRepeatCheckIsAHit(t *testing.T) {
	reg := obs.NewRegistry("mc")
	s, lab := testbedSim(t, WithMotionCache(true), WithObserver(reg))
	m := model(lab)
	cmd := move(geom.V(0.32, 0.22, 0.25))
	for i := 0; i < 3; i++ {
		if err := s.ValidTrajectory(cmd, m); err != nil {
			t.Fatalf("check %d: %v", i, err)
		}
	}
	if got := reg.Counter(obs.CounterVerdictCacheMisses).Value(); got != 1 {
		t.Errorf("verdict misses = %d, want 1", got)
	}
	if got := reg.Counter(obs.CounterVerdictCacheHits).Value(); got != 2 {
		t.Errorf("verdict hits = %d, want 2", got)
	}
	// The IK solve was also memoized: the two hits never re-planned, and
	// the single miss planned once.
	if st := s.PlanCache().Stats(); st.Misses != 1 {
		t.Errorf("plan misses = %d, want 1", st.Misses)
	}
	// Violations are memoized too, with the reason intact.
	bad := move(geom.V(0.35, 0.25, 0.05)) // grid collision
	first := verdict(s.ValidTrajectory(bad, m))
	second := verdict(s.ValidTrajectory(bad, m))
	if first == "ok" || first != second {
		t.Errorf("cached violation mismatch: %q then %q", first, second)
	}
	if got := reg.Counter(obs.CounterVerdictCacheHits).Value(); got != 3 {
		t.Errorf("verdict hits = %d, want 3 after cached violation", got)
	}
}

func TestDeckEpochInvalidatesVerdicts(t *testing.T) {
	reg := obs.NewRegistry("epoch")
	s, lab := testbedSim(t, WithMotionCache(true), WithObserver(reg))
	mClosed := model(lab)
	parkForCrossing(t, s, mClosed)
	crossing := move(geom.V(0.63, -0.02, 0.12))

	err := s.ValidTrajectory(crossing, mClosed)
	if err == nil || !strings.Contains(err.Error(), "centrifuge") {
		t.Fatalf("door-closed crossing should hit the centrifuge: %v", err)
	}
	if v := verdict(s.ValidTrajectory(crossing, mClosed)); v != verdict(err) {
		t.Fatalf("cached verdict changed: %q", v)
	}

	// Open the door; the model owner bumps the epoch with the change.
	mOpen := mClosed.Clone()
	mOpen.Set(state.DoorStatus("centrifuge"), state.Bool(true))
	s.BumpDeckEpoch()
	misses := reg.Counter(obs.CounterVerdictCacheMisses).Value()
	if err := s.ValidTrajectory(crossing, mOpen); err != nil {
		t.Fatalf("door-open crossing rejected: %v", err)
	}
	if got := reg.Counter(obs.CounterVerdictCacheMisses).Value(); got != misses+1 {
		t.Errorf("post-bump check was not a miss (misses %d -> %d)", misses, got)
	}
	if got := reg.Counter(obs.CounterDeckEpochBumps).Value(); got != 1 {
		t.Errorf("epoch bump counter = %d, want 1", got)
	}

	// Closing it again bumps again; the stale pass under the open-door
	// epoch must not be served.
	s.BumpDeckEpoch()
	err = s.ValidTrajectory(crossing, mClosed)
	if err == nil || !strings.Contains(err.Error(), "centrifuge") {
		t.Fatalf("stale door-open verdict served after re-close: %v", err)
	}
}

// TestCachedVerdictEquivalenceRandomized is the acceptance property test:
// over hundreds of randomized interleavings of motion commands and
// deck-relevant model mutations, the cached simulator (epoch bumped on
// every mutation) returns exactly the verdicts — reason strings included
// — of an uncached simulator driven identically. It runs the default
// cache: a plan-cache miss solves cold and a hit replays that answer, so
// equivalence is exact, not merely tolerance-equal.
func TestCachedVerdictEquivalenceRandomized(t *testing.T) {
	lab, err := labs.Testbed()
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry("prop")
	cached, err := New(lab, WithMotionCache(true), WithObserver(reg))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := New(lab)
	if err != nil {
		t.Fatal(err)
	}

	m := lab.InitialModelState()
	rng := rand.New(rand.NewSource(42))

	// Finite target pools so the interleaving revisits moves and the
	// cache actually engages. Each pool mixes free space, deck
	// collisions, wall strikes, door-gated paths, and an unplannable
	// target (targets are in the arm's base frame).
	pools := map[string][]geom.Vec3{
		"viperx": {
			geom.V(0.32, 0.22, 0.25), geom.V(0.15, 0.30, 0.25),
			geom.V(0.35, 0.25, 0.05), geom.V(0.63, -0.38, 0.30),
			geom.V(0.63, -0.38, 0.12), geom.V(0.63, -0.02, 0.12),
			geom.V(0.35, 0.52, 0.35), geom.V(0.35, 0.64, 0.30),
			geom.V(0.45, 0.10, 0.07), geom.V(0.45, 0.10, 0.30),
			geom.V(0.1, 0.1, 1.5),
		},
		"ned2": {
			geom.V(-0.2, 0.2, 0.2), geom.V(-0.17, -0.22, 0.08),
			geom.V(-0.15, 0.25, 0.15), geom.V(-0.25, -0.1, 0.25),
			geom.V(0.1, 0.1, 1.5),
		},
	}
	arms := []string{"viperx", "ned2"}

	// Deck-relevant mutations: the model owner applies the change and
	// bumps the cached simulator's epoch with it.
	mutations := []func(){
		func() { toggleBool(m, state.DoorStatus("centrifuge")) },
		func() { toggleBool(m, state.DoorStatus("dosing_device")) },
		func() {
			holding := !m.GetBool(state.Holding("viperx"))
			m.Set(state.Holding("viperx"), state.Bool(holding))
			obj := ""
			if holding {
				obj = "vial_1"
			}
			m.Set(state.HeldObject("viperx"), state.Str(obj))
		},
		func() { toggleBool(m, state.ArmInside("ned2", "dosing_device")) },
	}

	const wantChecks = 550
	checks, mutates := 0, 0
	for checks < wantChecks {
		if rng.Intn(10) < 3 {
			mutations[rng.Intn(len(mutations))]()
			cached.BumpDeckEpoch()
			mutates++
			continue
		}
		arm := arms[rng.Intn(len(arms))]
		var cmd action.Command
		switch rng.Intn(10) {
		case 0:
			cmd = action.Command{Device: arm, Action: action.MoveHome}
		case 1:
			cmd = action.Command{Device: arm, Action: action.MoveSleep}
		default:
			pool := pools[arm]
			cmd = moveOn(arm, pool[rng.Intn(len(pool))])
		}
		vc := verdict(cached.ValidTrajectory(cmd, m))
		vp := verdict(plain.ValidTrajectory(cmd, m))
		if vc != vp {
			t.Fatalf("check %d (%s %v after %d mutations): cached %q, uncached %q",
				checks, arm, cmd.Target, mutates, vc, vp)
		}
		if vc == "ok" {
			cached.Observe(cmd, m)
			plain.Observe(cmd, m)
		}
		checks++
	}

	hits := reg.Counter(obs.CounterVerdictCacheHits).Value()
	misses := reg.Counter(obs.CounterVerdictCacheMisses).Value()
	if hits == 0 {
		t.Error("property run never hit the verdict cache — nothing was proven")
	}
	if mutates == 0 {
		t.Error("property run never mutated the deck")
	}
	if hits+misses != int64(cached.Checks()) {
		t.Errorf("hits %d + misses %d != checks %d", hits, misses, cached.Checks())
	}
	t.Logf("%d checks, %d mutations, %d hits, %d misses, %d plan-cache hits",
		checks, mutates, hits, misses, cached.PlanCache().Stats().Hits)
}

func toggleBool(m state.Snapshot, k state.Key) {
	m.Set(k, state.Bool(!m.GetBool(k)))
}

// TestSharedPlanCacheConcurrentEpochMutation is the -race stress for the
// fast path: both testbed arms check door-gated moves from concurrent
// goroutines through one shared plan cache while a mutator goroutine
// flips the centrifuge door and bumps the deck epoch under the same
// RWMutex discipline the engine uses (checkers hold RLock across the
// model read and the check; the mutator publishes model + epoch under
// Lock). Every verdict must match the door state the checker read — a
// single stale cached verdict fails the test.
func TestSharedPlanCacheConcurrentEpochMutation(t *testing.T) {
	lab, err := labs.Testbed()
	if err != nil {
		t.Fatal(err)
	}
	pc := kin.NewPlanCache(0)
	reg := obs.NewRegistry("race")
	s, err := New(lab, WithMotionCache(true), WithSharedPlanCache(pc), WithObserver(reg))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(lab)
	if err != nil {
		t.Fatal(err)
	}

	mClosed := lab.InitialModelState()
	parkForCrossing(t, s, mClosed)
	parkForCrossing(t, ref, mClosed)
	mOpen := mClosed.Clone()
	mOpen.Set(state.DoorStatus("centrifuge"), state.Bool(true))

	cmds := map[string]action.Command{
		"viperx": moveOn("viperx", geom.V(0.63, -0.02, 0.12)),
		"ned2":   moveOn("ned2", geom.V(-0.17, -0.22, 0.08)),
	}
	// Ground truth per (arm, door state) from the uncached reference.
	expect := map[string]map[bool]string{}
	for arm, cmd := range cmds {
		expect[arm] = map[bool]string{
			false: verdict(ref.ValidTrajectory(cmd, mClosed)),
			true:  verdict(ref.ValidTrajectory(cmd, mOpen)),
		}
	}
	if expect["viperx"][false] == expect["viperx"][true] {
		t.Fatalf("degenerate geometry: crossing verdict %q regardless of door",
			expect["viperx"][false])
	}

	// Shared published state, engine-style.
	var pub sync.RWMutex
	cur := mClosed
	doorOpen := false

	const iters = 250
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for arm, cmd := range cmds {
		wg.Add(1)
		go func(arm string, cmd action.Command) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				pub.RLock()
				snap, open := cur, doorOpen
				got := verdict(s.ValidTrajectory(cmd, snap))
				pub.RUnlock()
				if want := expect[arm][open]; got != want {
					select {
					case errs <- fmt.Sprintf("%s iter %d (door open=%v): got %q, want %q",
						arm, i, open, got, want):
					default:
					}
					return
				}
			}
		}(arm, cmd)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters/3; i++ {
			pub.Lock()
			doorOpen = !doorOpen
			if doorOpen {
				cur = mOpen
			} else {
				cur = mClosed
			}
			s.BumpDeckEpoch()
			pub.Unlock()
		}
	}()
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}

	if hits := reg.Counter(obs.CounterVerdictCacheHits).Value(); hits == 0 {
		t.Error("stress run never hit the verdict cache")
	}
	if st := pc.Stats(); st.Hits == 0 {
		t.Error("shared plan cache was never hit across the concurrent arms")
	}
}

func TestSpeculateAfterWarmsNextCheck(t *testing.T) {
	reg := obs.NewRegistry("spec")
	s, lab := testbedSim(t, WithMotionCache(true), WithObserver(reg))
	m := model(lab)
	cur := move(geom.V(0.32, 0.22, 0.25))
	next := move(geom.V(0.15, 0.30, 0.25))

	if !s.SpeculateAfter(cur, next, m, s.DeckEpoch()) {
		t.Fatal("speculation refused")
	}
	// Speculative work must not show up as on-path traffic.
	if got := reg.Counter(obs.CounterVerdictCacheMisses).Value(); got != 0 {
		t.Errorf("speculation counted as an on-path miss (%d)", got)
	}

	if err := s.ValidTrajectory(cur, m); err != nil {
		t.Fatal(err)
	}
	s.Observe(cur, m)
	if err := s.ValidTrajectory(next, m); err != nil {
		t.Fatal(err)
	}
	if got := s.SpeculationHits(); got != 1 {
		t.Errorf("speculation hits = %d, want 1", got)
	}
	if got := reg.Gauge(obs.GaugeSpeculationHits).Value(); got != 1 {
		t.Errorf("speculation gauge = %d, want 1", got)
	}
	// The speculative credit is claimed once; a re-check is an ordinary hit.
	if err := s.ValidTrajectory(next, m); err != nil {
		t.Fatal(err)
	}
	if got := s.SpeculationHits(); got != 1 {
		t.Errorf("speculation hits double-counted: %d", got)
	}

	// Guards: non-motion next, unknown arm, cache off.
	if s.SpeculateAfter(cur, action.Command{Device: "dosing_device", Action: action.OpenDoor}, m, s.DeckEpoch()) {
		t.Error("speculated a non-motion command")
	}
	if s.SpeculateAfter(cur, moveOn("ghost", geom.V(0.2, 0.2, 0.2)), m, s.DeckEpoch()) {
		t.Error("speculated for an unmodelled arm")
	}
	off, _ := testbedSim(t)
	if off.SpeculateAfter(cur, next, m, 0) {
		t.Error("speculated with the motion cache off")
	}
}

func TestSpeculationStrandedByEpochBump(t *testing.T) {
	reg := obs.NewRegistry("spec-stale")
	s, lab := testbedSim(t, WithMotionCache(true), WithObserver(reg))
	m := model(lab)
	cur := move(geom.V(0.32, 0.22, 0.25))
	next := move(geom.V(0.15, 0.30, 0.25))

	epoch := s.DeckEpoch()
	if !s.SpeculateAfter(cur, next, m, epoch) {
		t.Fatal("speculation refused")
	}
	// The deck changes between speculation and execution: the
	// speculative verdict is stranded under the dead epoch.
	s.BumpDeckEpoch()
	if err := s.ValidTrajectory(cur, m); err != nil {
		t.Fatal(err)
	}
	s.Observe(cur, m)
	misses := reg.Counter(obs.CounterVerdictCacheMisses).Value()
	if err := s.ValidTrajectory(next, m); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter(obs.CounterVerdictCacheMisses).Value(); got != misses+1 {
		t.Error("stale speculative verdict was served across an epoch bump")
	}
	if got := s.SpeculationHits(); got != 0 {
		t.Errorf("speculation hits = %d, want 0 after mis-speculation", got)
	}
}

// TestSpeculateAfterPredictsFromPriorEnd: when the prior command moves
// the same arm, the speculation plans from the prior's end configuration
// — the state the arm will actually be in — not the mirror's current one.
func TestSpeculateAfterPredictsFromPriorEnd(t *testing.T) {
	s, lab := testbedSim(t, WithMotionCache(true))
	m := model(lab)
	parked := s.arms["viperx"]
	parked.mu.Lock()
	home := append([]float64(nil), parked.joints...)
	parked.mu.Unlock()

	cur := move(geom.V(0.63, -0.38, 0.30))
	next := move(geom.V(0.63, -0.38, 0.12))
	if !s.SpeculateAfter(cur, next, m, s.DeckEpoch()) {
		t.Fatal("speculation refused")
	}
	// The mirror must not have moved.
	parked.mu.Lock()
	moved := !equalJoints(parked.joints, home)
	parked.mu.Unlock()
	if moved {
		t.Fatal("speculation advanced the mirror")
	}
	// Executing the pair consumes the speculative verdict, which is only
	// possible if it was keyed on cur's end configuration.
	if err := s.ValidTrajectory(cur, m); err != nil {
		t.Fatal(err)
	}
	s.Observe(cur, m)
	if err := s.ValidTrajectory(next, m); err != nil {
		t.Fatal(err)
	}
	if got := s.SpeculationHits(); got != 1 {
		t.Errorf("speculation hits = %d, want 1", got)
	}
}

func equalJoints(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestVerdictCacheLRUEviction(t *testing.T) {
	c := newVerdictCache(3)
	var ev obs.Counter
	for i := 0; i < 5; i++ {
		c.put(fmt.Sprintf("k%d", i), outcome{reason: ""}, &ev)
	}
	if c.len() != 3 {
		t.Errorf("len = %d, want 3", c.len())
	}
	if ev.Value() != 2 {
		t.Errorf("evictions = %d, want 2", ev.Value())
	}
	// Oldest keys are gone, newest retained.
	if _, ok, _ := c.get("k0", true); ok {
		t.Error("k0 survived eviction")
	}
	if _, ok, _ := c.get("k4", true); !ok {
		t.Error("k4 evicted")
	}
	// First write wins: a second put under the same key is a no-op.
	c.put("k4", outcome{reason: "changed"}, &ev)
	if v, _, _ := c.get("k4", true); v.reason != "" {
		t.Error("second put overwrote the verdict")
	}
}
