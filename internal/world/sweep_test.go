package world

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/kin"
)

// refLabeledCapsulesAt is the two-pass form of an arm's labelled volume:
// LinkCapsules, then EndEffector for the TCP, with the held object looked
// up at every sample. It is the reference the single-FK sweep must match.
func refLabeledCapsulesAt(w *World, a *Arm, joints []float64, roll float64) ([]labeledCapsule, error) {
	linkCaps, err := a.Profile.Chain.LinkCapsules(joints)
	if err != nil {
		return nil, err
	}
	var out []labeledCapsule
	for _, c := range linkCaps {
		out = append(out, labeledCapsule{cap: c, part: "link"})
	}
	tcp, err := a.Profile.Chain.EndEffector(joints)
	if err != nil {
		return nil, err
	}
	tip := tcp.Add(fingerDirection(roll).Scale(a.FingerDrop))
	out = append(out, labeledCapsule{cap: geom.NewCapsule(tcp, tip, a.FingerRadius), part: "fingers"})
	if a.Holding != "" {
		if o, ok := w.objects[a.Holding]; ok && !o.Broken {
			hang := o.CarriedHang() - o.RadiusM
			if hang < 0 {
				hang = 0
			}
			bottom := tcp.Add(geom.V(0, 0, -hang))
			out = append(out, labeledCapsule{cap: geom.NewCapsule(tcp, bottom, o.RadiusM), part: "held:" + o.ID})
		}
	}
	return out, nil
}

// refParkedLocked is parkedArmsLocked on the reference volume.
func refParkedLocked(w *World, moving *Arm) []parkedArm {
	var ids []string
	for id := range w.arms {
		if id != moving.ID {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	var out []parkedArm
	for _, id := range ids {
		other := w.arms[id]
		caps, err := refLabeledCapsulesAt(w, other, other.Joints, other.Roll)
		if err != nil {
			continue
		}
		_, b := capsuleBounds(caps, nil)
		out = append(out, parkedArm{arm: other, caps: caps, bounds: b})
	}
	return out
}

// refMoveArmTo is MoveArmTo sweeping the reference volume, sample by
// sample through tr.At.
func refMoveArmTo(w *World, armID string, target geom.Vec3, opts MoveOptions) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	a := w.arms[armID]
	noisy := w.noisyTargetLocked(a, target)
	tr, err := w.planLocked(a, noisy)
	if err != nil {
		return fmt.Errorf("world: arm %s cannot reach %v: %w", armID, target, err)
	}
	obstacles := w.obstaclesLocked(nil, a, opts, nil)
	others := refParkedLocked(w, a)
	n := tr.SampleCount(sweepStep)
	for i := 0; i <= n; i++ {
		t := float64(i) / float64(n)
		caps, err := refLabeledCapsulesAt(w, a, tr.At(t), opts.Roll)
		if err != nil {
			return err
		}
		capBounds, bound := capsuleBounds(caps, nil)
		ev, hit := w.checkCapsulesLocked(a, caps, capBounds, obstacles)
		for _, o := range others {
			if hit {
				break
			}
			if bound.Intersects(o.bounds) {
				ev, hit = w.checkArmArmLocked(a, caps, o.arm, o.caps)
			}
		}
		if hit {
			a.Joints = tr.At(t)
			a.Asleep = false
			w.now += scaleDuration(tr.Duration(), t)
			return &CollisionError{Ev: ev}
		}
	}
	w.finishMoveLocked(a, tr, opts, target, noisy)
	return nil
}

// refMoveArmsConcurrently is MoveArmsConcurrently sweeping the reference
// volume.
func refMoveArmsConcurrently(w *World, moves []ConcurrentMove) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	var legs []concLeg
	var noisy []geom.Vec3
	moving := map[string]bool{}
	for _, m := range moves {
		a := w.arms[m.ArmID]
		nt := w.noisyTargetLocked(a, m.Target)
		tr, err := w.planLocked(a, nt)
		if err != nil {
			return fmt.Errorf("world: arm %s cannot reach %v: %w", m.ArmID, m.Target, err)
		}
		legs = append(legs, concLeg{arm: a, tr: tr, mv: m})
		noisy = append(noisy, nt)
		moving[a.ID] = true
	}
	n := 2
	for _, l := range legs {
		if c := l.tr.SampleCount(sweepStep); c > n {
			n = c
		}
	}
	for i := 0; i <= n; i++ {
		t := float64(i) / float64(n)
		allCaps := make([][]labeledCapsule, len(legs))
		for li, l := range legs {
			caps, err := refLabeledCapsulesAt(w, l.arm, l.tr.At(t), l.mv.Opts.Roll)
			if err != nil {
				return err
			}
			allCaps[li] = caps
		}
		for li, l := range legs {
			capBounds, _ := capsuleBounds(allCaps[li], nil)
			ev, hit := w.checkCapsulesLocked(l.arm, allCaps[li], capBounds, w.obstaclesLocked(nil, l.arm, l.mv.Opts, moving))
			for lj := range legs {
				if !hit && lj != li {
					ev, hit = w.checkArmArmLocked(l.arm, allCaps[li], legs[lj].arm, allCaps[lj])
				}
			}
			if hit {
				w.stopLegsAt(legs, t)
				w.now += scaleDuration(maxLegDuration(legs), t)
				return &CollisionError{Ev: ev}
			}
		}
	}
	var sum time.Duration
	for li, l := range legs {
		w.finishMoveLocked(l.arm, l.tr, l.mv.Opts, moves[li].Target, noisy[li])
		sum += l.tr.Duration()
	}
	w.now += maxLegDuration(legs) - sum
	return nil
}

// worldFingerprint renders everything a sweep can change: the clock, the
// event log, and every arm's joints (bit for bit), holding and object
// damage.
func worldFingerprint(w *World) string {
	w.mu.Lock()
	defer w.mu.Unlock()
	s := fmt.Sprintf("now=%d events=%v\n", w.now, w.events)
	for _, id := range []string{"ned2", "viperx"} {
		a := w.arms[id]
		s += fmt.Sprintf("%s holding=%q roll=%x joints=", id, a.Holding, math.Float64bits(a.Roll))
		for _, q := range a.Joints {
			s += fmt.Sprintf("%x,", math.Float64bits(q))
		}
		s += "\n"
	}
	for _, id := range []string{"vial_1"} {
		o := w.objects[id]
		s += fmt.Sprintf("%s broken=%v at=%q held=%q\n", id, o.Broken, o.At, o.HeldBy)
	}
	for _, id := range []string{"dosing_device", "grid", "hotplate"} {
		s += fmt.Sprintf("%s broken=%v\n", id, w.fixtures[id].Broken)
	}
	return s
}

// sameVolumeAlong compares the sweep's per-sample volume with the
// reference volume, capsule by capsule, along the arm's move from its
// current joints to Home at the given roll.
func sameVolumeAlong(w *World, armID string, roll float64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	a := w.arms[armID]
	tr := &kin.Trajectory{Chain: a.Profile.Chain, From: a.Joints, To: a.Profile.Home}
	vol := sweepVolume{arm: a, tr: tr, roll: roll, held: w.heldVolumeLocked(a)}
	n := tr.SampleCount(sweepStep)
	for i := 0; i <= n; i++ {
		t := float64(i) / float64(n)
		got, err := vol.at(t)
		if err != nil {
			return err
		}
		want, err := refLabeledCapsulesAt(w, a, tr.At(t), roll)
		if err != nil {
			return err
		}
		if len(got) != len(want) {
			return fmt.Errorf("t=%v: %d capsules, reference %d", t, len(got), len(want))
		}
		for k := range got {
			if got[k] != want[k] {
				return fmt.Errorf("t=%v capsule %d: %+v, reference %+v", t, k, got[k], want[k])
			}
		}
	}
	return nil
}

// TestSweepMatchesTwoPassReference: seeded moves on the testbed deck — a
// held vial, a hollow device with a door, solid fixtures, a second arm —
// give the same collision events (description, time, stop joints) through
// the single-FK sweep as through the two-pass reference, single-arm and
// concurrent alike. Each episode runs the same script on two identically
// built worlds, one per sweep form, and compares them after every move;
// after every move the per-sample volumes of both forms must also agree
// capsule for capsule. A last episode parks one arm with its fingers
// rolled sideways and drives the other into the rolled blade, a strike
// that misses if the parked arm's roll is dropped.
func TestSweepMatchesTwoPassReference(t *testing.T) {
	var moves, collisions, heldMoves, heldEvents int
	for episode := 0; episode < 12; episode++ {
		got, ref := testDeck(t), testDeck(t)
		rng := rand.New(rand.NewSource(int64(episode)))
		// Grab the vial first, so the moves that follow carry it.
		pickup := []struct {
			target geom.Vec3
			opts   MoveOptions
		}{
			{geom.V(0.32, 0.22, 0.23), MoveOptions{}},
			{geom.V(0.32, 0.22, 0.16), MoveOptions{IgnoreObjects: []string{"vial_1"}}},
		}
		for _, w := range []*World{got, ref} {
			if err := w.SetDoor("dosing_device", episode%2 == 0); err != nil {
				t.Fatal(err)
			}
		}
		step := func(desc string, gotErr, refErr error) {
			t.Helper()
			moves++
			if fmt.Sprint(gotErr) != fmt.Sprint(refErr) {
				t.Fatalf("episode %d %s: error %v, reference %v", episode, desc, gotErr, refErr)
			}
			if _, ok := AsCollision(gotErr); ok {
				collisions++
			}
			if g, r := worldFingerprint(got), worldFingerprint(ref); g != r {
				t.Fatalf("episode %d %s: world\n%s\nreference\n%s", episode, desc, g, r)
			}
			if err := sameVolumeAlong(got, "viperx", 0.4); err != nil {
				t.Fatalf("episode %d %s: %v", episode, desc, err)
			}
		}
		for _, p := range pickup {
			step("pickup", got.MoveArmTo("viperx", p.target, p.opts), refMoveArmTo(ref, "viperx", p.target, p.opts))
		}
		if err := got.CloseGripper("viperx"); err != nil {
			t.Fatal(err)
		}
		if err := ref.CloseGripper("viperx"); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 10; k++ {
			if a, _ := got.Arm("viperx"); a.Holding != "" {
				if o, _ := got.Object(a.Holding); !o.Broken {
					heldMoves++
				}
			}
			armID, base := "viperx", geom.V(0, 0, 0)
			if rng.Intn(4) == 0 {
				armID, base = "ned2", geom.V(0.8, 0, 0)
			}
			target := base.Add(geom.V(0.55*rng.Float64()-0.2, 0.6*rng.Float64()-0.1, 0.35*rng.Float64()-0.03))
			if armID == "ned2" {
				target.X = base.X - (target.X - base.X)
			}
			opts := MoveOptions{Roll: []float64{0, 0, 0.4, 1.3}[rng.Intn(4)]}
			if rng.Intn(3) == 0 {
				opts.IgnoreObjects = []string{"vial_1"}
			}
			desc := fmt.Sprintf("move %d %s→%v", k, armID, target)
			if rng.Intn(5) == 0 {
				legs := []ConcurrentMove{
					{ArmID: "viperx", Target: geom.V(0.2+0.4*rng.Float64(), 0.3*rng.Float64(), 0.1+0.2*rng.Float64()), Opts: opts},
					{ArmID: "ned2", Target: geom.V(0.3+0.4*rng.Float64(), 0.3*rng.Float64(), 0.1+0.2*rng.Float64())},
				}
				step("concurrent "+desc, got.MoveArmsConcurrently(legs), refMoveArmsConcurrently(ref, legs))
			} else {
				step(desc, got.MoveArmTo(armID, target, opts), refMoveArmTo(ref, armID, target, opts))
			}
		}
		for _, ev := range got.Events() {
			for _, id := range ev.Involved {
				if id == "vial_1" {
					heldEvents++
				}
			}
		}
	}
	t.Logf("%d moves, %d collisions, %d moves carrying the vial, %d vial events", moves, collisions, heldMoves, heldEvents)
	if collisions == 0 || heldMoves == 0 || heldEvents == 0 {
		t.Fatal("the script must collide, carry the vial, and break it somewhere to pin the sweep")
	}

	// The viperx parks with its blade rolled toward the Ned2 (+X); the
	// Ned2 descends to a point its own volume keeps clear of a viperx
	// whose fingers hang straight down, but not of the rolled blade.
	got, ref := testDeck(t), testDeck(t)
	for _, w := range []*World{got, ref} {
		clearVial(t, w)
		w.SetExactMotion(true)
	}
	legs := []struct {
		arm    string
		target geom.Vec3
		opts   MoveOptions
	}{
		{"viperx", geom.V(0.55, 0, 0.30), MoveOptions{Roll: math.Pi / 2}},
		{"ned2", geom.V(0.61, 0, 0.40), MoveOptions{}},
		{"ned2", geom.V(0.61, 0, 0.32), MoveOptions{}},
	}
	var gotErr error
	for _, l := range legs {
		gotErr = got.MoveArmTo(l.arm, l.target, l.opts)
		refErr := refMoveArmTo(ref, l.arm, l.target, l.opts)
		if fmt.Sprint(gotErr) != fmt.Sprint(refErr) {
			t.Fatalf("rolled parked arm, %s→%v: error %v, reference %v", l.arm, l.target, gotErr, refErr)
		}
		if g, r := worldFingerprint(got), worldFingerprint(ref); g != r {
			t.Fatalf("rolled parked arm, %s→%v: world\n%s\nreference\n%s", l.arm, l.target, g, r)
		}
	}
	if ce, ok := AsCollision(gotErr); !ok || !strings.Contains(ce.Ev.Description, "robot arms ned2 and viperx") {
		t.Fatalf("the Ned2 must strike the parked viperx's rolled blade, got %v", gotErr)
	}
}

// sweepAllocs reports the allocations of one collision-free sweep of the
// viperx from Home through a base rotation of span radians, and its
// sample count.
func sweepAllocs(t *testing.T, w *World, span float64) (float64, int) {
	t.Helper()
	a := w.arms["viperx"]
	to := append([]float64(nil), a.Joints...)
	to[0] += span
	tr := &kin.Trajectory{Chain: a.Profile.Chain, From: a.Joints, To: to}
	var err error
	allocs := testing.AllocsPerRun(20, func() {
		w.mu.Lock()
		err = w.sweepLocked(a, tr, MoveOptions{}, nil)
		w.mu.Unlock()
	})
	if err != nil {
		t.Fatalf("sweep through %.2f rad: %v", span, err)
	}
	return allocs, tr.SampleCount(sweepStep)
}

// TestSweepAllocsFlatInSamples: a world sweep's allocations are per
// sweep (obstacles, parked arms, first-sample buffers), never per sample
// — with a held vial and a second arm on the deck, a sweep with many
// times the samples allocates exactly as much.
func TestSweepAllocsFlatInSamples(t *testing.T) {
	w := New(1)
	vp, err := kin.NewProfile(kin.ModelViperX300, geom.IdentityPose())
	if err != nil {
		t.Fatal(err)
	}
	nd, err := kin.NewProfile(kin.ModelNed2, geom.PoseAt(geom.V(1.5, 0, 0)))
	if err != nil {
		t.Fatal(err)
	}
	a, err := w.AddArm("viperx", vp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.AddArm("ned2", nd); err != nil {
		t.Fatal(err)
	}
	if err := w.AddFixture(&Fixture{ID: "grid", Kind: KindGrid, Body: geom.Box(geom.V(1.0, 0.6, 0), geom.V(1.2, 0.8, 0.08))}); err != nil {
		t.Fatal(err)
	}
	if err := w.AddObject(&Object{ID: "vial_1", HeightM: 0.07, RadiusM: 0.012, HeldBy: "viperx"}); err != nil {
		t.Fatal(err)
	}
	a.Holding = "vial_1"
	short, nShort := sweepAllocs(t, w, 0.1)
	long, nLong := sweepAllocs(t, w, 2.0)
	if nLong < 4*nShort {
		t.Fatalf("sample counts %d and %d are too close to tell", nShort, nLong)
	}
	if long != short {
		t.Errorf("sweep allocations grow with samples: %v allocs at %d samples, %v at %d", short, nShort, long, nLong)
	}
	t.Logf("%v allocs per sweep at %d and %d samples", short, nShort, nLong)
}

func BenchmarkWorldSweep(b *testing.B) {
	w := New(1)
	vp, err := kin.NewProfile(kin.ModelViperX300, geom.IdentityPose())
	if err != nil {
		b.Fatal(err)
	}
	a, err := w.AddArm("viperx", vp)
	if err != nil {
		b.Fatal(err)
	}
	if err := w.AddFixture(&Fixture{ID: "hotplate", Kind: KindHotplate, Body: geom.Box(geom.V(0.48, 0.38, 0), geom.V(0.62, 0.52, 0.12))}); err != nil {
		b.Fatal(err)
	}
	to := append([]float64(nil), a.Joints...)
	to[0] += 1.0
	tr := &kin.Trajectory{Chain: vp.Chain, From: a.Joints, To: to}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.mu.Lock()
		err := w.sweepLocked(a, tr, MoveOptions{}, nil)
		w.mu.Unlock()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tr.SampleCount(sweepStep)+1), "samples/op")
}
