package world

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/kin"
)

// TestSweepMemoParity runs seeded scripts on twin testbed worlds, one
// routing its sweeps through a memo and one sweeping every move in full,
// and requires the same error and the same world (clock, events, joints
// bit for bit, holdings, damage) after every move. The scripts mix door
// toggles, a carried vial, rolled parked arms, home and sleep moves and
// collisions with the platform, a wall, a door and fixtures. One memo
// serves every episode although the episodes' decks differ (door state,
// a wall, the vial's slot, the parked arm's roll), and it must hit.
func TestSweepMemoParity(t *testing.T) {
	memo := NewSweepMemo(0)
	viperTargets := []geom.Vec3{
		geom.V(0.32, 0.22, 0.23),  // above the grid vial
		geom.V(0.25, 0.28, 0.25),  // beside the grid
		geom.V(0.55, 0.45, 0.20),  // above the hotplate
		geom.V(0.55, 0.45, 0.08),  // into the hotplate body
		geom.V(0.15, 0.30, 0.19),  // dosing-device approach
		geom.V(0.15, 0.45, 0.19),  // inside the dosing device
		geom.V(0.30, -0.25, 0.25), // past the wall, where there is one
		geom.V(0.40, 0.00, -0.01), // below the platform
	}
	nedTargets := []geom.Vec3{
		geom.V(0.90, 0.10, 0.25),
		geom.V(0.65, 0.10, 0.25),
		geom.V(1.00, -0.10, 0.20),
	}
	var moves, collisions int
	for episode := 0; episode < 16; episode++ {
		memoed, plain := testDeck(t), testDeck(t)
		for _, w := range []*World{memoed, plain} {
			w.SetExactMotion(true)
			if err := w.SetDoor("dosing_device", episode%2 == 0); err != nil {
				t.Fatal(err)
			}
			if episode%3 == 0 {
				w.AddWall(geom.PlaneFromPointNormal(geom.V(0, -0.15, 0), geom.V(0, 1, 0)))
			}
			if episode%4 == 2 {
				w.objects["vial_1"].At = "grid_NE"
			}
		}
		memoed.SetSweepMemo(memo)
		step := func(desc string, move func(w *World) error) {
			t.Helper()
			moves++
			gotErr, wantErr := move(memoed), move(plain)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("episode %d %s: error %v, without memo %v", episode, desc, gotErr, wantErr)
			}
			if _, ok := AsCollision(gotErr); ok {
				collisions++
			}
			if g, w := worldFingerprint(memoed), worldFingerprint(plain); g != w {
				t.Fatalf("episode %d %s: world\n%s\nwithout memo\n%s", episode, desc, g, w)
			}
		}
		moveTo := func(arm string, target geom.Vec3, opts MoveOptions) {
			step(fmt.Sprintf("%s→%v roll %v", arm, target, opts.Roll), func(w *World) error {
				return w.MoveArmTo(arm, target, opts)
			})
		}
		moveJoints := func(arm string, sleep bool) {
			step(fmt.Sprintf("%s sleep=%v", arm, sleep), func(w *World) error {
				p := w.arms[arm].Profile
				if sleep {
					return w.MoveArmJoints(arm, p.Sleep, true)
				}
				return w.MoveArmJoints(arm, p.Home, false)
			})
		}
		// The Ned2 parks with an episode-dependent roll before the viperx
		// moves near it.
		moveTo("ned2", nedTargets[1], MoveOptions{Roll: []float64{0, -0.4, 1.3}[episode%3]})
		if episode%2 == 1 {
			moveTo("viperx", geom.V(0.32, 0.22, 0.23), MoveOptions{})
			moveTo("viperx", geom.V(0.32, 0.22, 0.16), MoveOptions{IgnoreObjects: []string{"vial_1"}})
			step("close gripper", func(w *World) error { return w.CloseGripper("viperx") })
			moveTo("viperx", geom.V(0.32, 0.22, 0.23), MoveOptions{})
		}
		rng := rand.New(rand.NewSource(int64(episode % 4)))
		doorOpen := episode%2 == 0
		for k := 0; k < 14; k++ {
			switch r := rng.Intn(11); {
			case r < 5:
				moveTo("viperx", viperTargets[rng.Intn(len(viperTargets))], MoveOptions{Roll: []float64{0, 0.4}[rng.Intn(2)]})
			case r < 7:
				moveTo("ned2", nedTargets[rng.Intn(len(nedTargets))], MoveOptions{Roll: []float64{0, -0.4, 1.3}[rng.Intn(3)]})
			case r == 7:
				moveJoints("viperx", false)
			case r == 8:
				moveJoints("viperx", true)
			case r == 9:
				moveJoints("ned2", false)
			default:
				doorOpen = !doorOpen
				step(fmt.Sprintf("door open=%v", doorOpen), func(w *World) error {
					return w.SetDoor("dosing_device", doorOpen)
				})
			}
		}
	}
	st := memo.Stats()
	entries, sets := memo.Len()
	t.Logf("%d moves, %d collisions; memo %+v, %d entries over %d sets", moves, collisions, st, entries, sets)
	if collisions == 0 || st.Hits == 0 || st.Misses == 0 {
		t.Fatal("the scripts must collide, and the memo must both hit and miss")
	}
}

// memoSweep sweeps the viperx from its current joints through a base
// rotation of 0.3 rad (after tweak edits the trajectory, if not nil)
// on w.
func memoSweep(w *World, tweak func(tr *kin.Trajectory)) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	a := w.arms["viperx"]
	to := append([]float64(nil), a.Joints...)
	to[0] += 0.3
	tr := &kin.Trajectory{Chain: a.Profile.Chain, From: a.Joints, To: to}
	if tweak != nil {
		tweak(tr)
	}
	return w.sweepLocked(a, tr, MoveOptions{}, nil)
}

// TestSweepMemoKeySensitivity: a clean sweep repeated on an identical
// world hits the memo, and the same sweep misses once any one of its
// inputs changes alone — even by one ULP.
func TestSweepMemoKeySensitivity(t *testing.T) {
	memo := NewSweepMemo(0)
	deck := func() *World {
		w := testDeck(t)
		// An off-deck vial the viperx can be made to hold without moving
		// any obstacle, and a wall no arm reaches.
		if err := w.AddObject(&Object{ID: "vial_2", HeightM: 0.07, RadiusM: 0.012}); err != nil {
			t.Fatal(err)
		}
		w.AddWall(geom.PlaneFromPointNormal(geom.V(0, -1, 0), geom.V(0, 1, 0)))
		w.SetSweepMemo(memo)
		return w
	}
	sweep := func(desc string, w *World, tweak func(tr *kin.Trajectory), wantHit bool) {
		t.Helper()
		before := memo.Stats()
		if err := memoSweep(w, tweak); err != nil {
			t.Fatalf("%s: %v", desc, err)
		}
		after := memo.Stats()
		if hit := after.Hits > before.Hits; hit != wantHit {
			t.Fatalf("%s: hit=%v, want %v (stats %+v → %+v)", desc, hit, wantHit, before, after)
		}
	}
	sweep("first sweep", deck(), nil, false)
	sweep("repeat on a fresh identical world", deck(), nil, true)

	variants := []struct {
		name  string
		edit  func(w *World)
		tweak func(tr *kin.Trajectory)
	}{
		{"one ULP of one joint", nil, func(tr *kin.Trajectory) { tr.To[2] = math.Nextafter(tr.To[2], 1) }},
		{"door opened", func(w *World) { w.fixtures["dosing_device"].DoorOpen = true }, nil},
		{"vial moved to another slot", func(w *World) { w.objects["vial_1"].At = "grid_NE" }, nil},
		{"parked arm rolled", func(w *World) { w.arms["ned2"].Roll = 0.4 }, nil},
		{"vial held", func(w *World) {
			w.arms["viperx"].Holding = "vial_2"
			w.objects["vial_2"].HeldBy = "viperx"
		}, nil},
		{"finger drop one ULP longer", func(w *World) {
			a := w.arms["viperx"]
			a.FingerDrop = math.Nextafter(a.FingerDrop, 1)
		}, nil},
		{"wall moved by one ULP", func(w *World) { w.walls[0].D = math.Nextafter(w.walls[0].D, 0) }, nil},
	}
	for _, v := range variants {
		w := deck()
		if v.edit != nil {
			v.edit(w)
		}
		sweep(v.name, w, v.tweak, false)
		// The variant was clean too, so it is now recorded.
		sweep(v.name+", repeated", w, v.tweak, true)
	}
}

// TestSweepMemoBound: a memo never holds more than its capacity of
// entries or a quarter of it of sets; a full memo is cleared, and the
// dropped entries are counted as evictions.
func TestSweepMemoBound(t *testing.T) {
	const capacity = 8
	memo := NewSweepMemo(capacity)
	w := testDeck(t)
	w.SetSweepMemo(memo)
	for i := 0; i < 60; i++ {
		// Every sweep is new; every fifth changes the set.
		w.arms["ned2"].Roll = float64(i / 5)
		start := float64(i % 5)
		if err := memoSweep(w, func(tr *kin.Trajectory) { tr.To[0] = tr.From[0] + 0.01*(1+start) }); err != nil {
			t.Fatal(err)
		}
		if entries, sets := memo.Len(); entries > capacity || sets > capacity/4 {
			t.Fatalf("after sweep %d: %d entries and %d sets, bounds %d and %d", i, entries, sets, capacity, capacity/4)
		}
	}
	if st := memo.Stats(); st.Evictions == 0 || st.Misses != 60 {
		t.Fatalf("stats %+v: want 60 misses and some evictions", st)
	}
}
