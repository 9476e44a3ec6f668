package sim

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/action"
	"repro/internal/config"
	"repro/internal/geom"
	"repro/internal/labs"
	"repro/internal/obs"
)

// The PR's verdict-equivalence property: the deck spatial index (the
// default cold path) must return exactly the verdicts — including the
// reason strings — of the brute-force scan, over randomized decks built
// by jittering the three lab configs' device placements and over
// randomized trajectories. Anything less than string equality would let
// a pruning bug hide behind "still rejected, different reason".

// jitterSpec translates every device by a small random offset — cuboid,
// interior, and the locations the device owns move together, so the
// deck stays self-consistent — producing a placement the fixed-grid
// tests never saw.
func jitterSpec(spec *config.LabSpec, rng *rand.Rand) *config.LabSpec {
	d := func() float64 { return (rng.Float64()*2 - 1) * 0.03 }
	for i := range spec.Devices {
		dev := &spec.Devices[i]
		dx, dy, dz := d(), d(), rng.Float64()*0.02
		move := func(v *config.Vec) { v.X += dx; v.Y += dy; v.Z += dz }
		move(&dev.Cuboid.Min)
		move(&dev.Cuboid.Max)
		if dev.Interior != nil {
			move(&dev.Interior.Min)
			move(&dev.Interior.Max)
		}
		for j := range spec.Locations {
			loc := &spec.Locations[j]
			if loc.Owner != dev.ID {
				continue
			}
			move(&loc.DeckPos)
			for arm, v := range loc.PerArm {
				v.X += dx
				v.Y += dy
				v.Z += dz
				loc.PerArm[arm] = v
			}
		}
	}
	return spec
}

// randTargets yields per-arm seeded target streams in an annular shell
// around the arm base: most plan and sweep, some reject, a few are
// unplannable — all verdict classes appear.
func randTargets(rng *rand.Rand, n int) []geom.Vec3 {
	out := make([]geom.Vec3, 0, n)
	for i := 0; i < n; i++ {
		r := 0.12 + rng.Float64()*0.40
		th := rng.Float64() * 2 * math.Pi
		out = append(out, geom.V(r*math.Cos(th), r*math.Sin(th), 0.02+rng.Float64()*0.40))
	}
	return out
}

// TestIndexVerdictEquivalenceRandomized jitters each lab config's deck,
// builds an indexed and a brute simulator over the identical spec, and
// replays random per-arm trajectories (Observe on accept, so successive
// checks start from new configurations) asserting verdict-string
// equality throughout.
func TestIndexVerdictEquivalenceRandomized(t *testing.T) {
	specs := map[string]func() *config.LabSpec{
		"testbed":      labs.TestbedSpec,
		"hein":         labs.HeinProductionSpec,
		"berlinguette": labs.BerlinguetteSpec,
	}
	for name, mk := range specs {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(name)) * 1009))
			for trial := 0; trial < 6; trial++ {
				lab, err := config.Compile(jitterSpec(mk(), rng))
				if err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				indexed, err := New(lab)
				if err != nil {
					t.Fatal(err)
				}
				brute, err := New(lab, WithBroadphase(false))
				if err != nil {
					t.Fatal(err)
				}
				m := lab.InitialModelState()
				accepts, rejects := 0, 0
				for _, as := range lab.Spec.Arms {
					for i, tgt := range randTargets(rng, 25) {
						cmd := moveOn(as.ID, tgt)
						vi := verdict(indexed.ValidTrajectory(cmd, m))
						vb := verdict(brute.ValidTrajectory(cmd, m))
						if vi != vb {
							t.Fatalf("trial %d %s target %d %v:\n  indexed: %q\n  brute:   %q",
								trial, as.ID, i, tgt, vi, vb)
						}
						if vi == "ok" {
							accepts++
							indexed.Observe(cmd, m)
							brute.Observe(cmd, m)
						} else {
							rejects++
						}
					}
				}
				if accepts == 0 || rejects == 0 {
					t.Fatalf("trial %d: degenerate stream (%d accepts, %d rejects)", trial, accepts, rejects)
				}
			}
		})
	}
}

// TestIndexRebuildUnderLoad races concurrent sharded checks — all
// sharing one deck index — against a goroutine hammering BumpDeckEpoch,
// so index rebuilds land mid-batch while both arms are querying. Deck
// geometry is immutable, so every verdict must still match a serial
// brute-force run; under -race this also proves the atomic
// publish/double-checked rebuild has no data race.
func TestIndexRebuildUnderLoad(t *testing.T) {
	lab, err := labs.Testbed()
	if err != nil {
		t.Fatal(err)
	}
	m := lab.InitialModelState()

	streams := map[string][]action.Command{}
	for i, as := range lab.Spec.Arms {
		rng := rand.New(rand.NewSource(int64(i)*31 + 7))
		cmds := make([]action.Command, 0, 40)
		for _, tgt := range randTargets(rng, 40) {
			cmds = append(cmds, moveOn(as.ID, tgt))
		}
		streams[as.ID] = cmds
	}

	brute, err := New(lab, WithBroadphase(false))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]string{}
	for arm, cmds := range streams {
		want[arm] = armScript(brute, m, cmds)
	}

	reg := obs.NewRegistry("index-under-load")
	indexed, err := New(lab, WithObserver(reg))
	if err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	var bumps sync.WaitGroup
	bumps.Add(1)
	go func() {
		defer bumps.Done()
		for !stop.Load() {
			indexed.BumpDeckEpoch()
		}
	}()
	got := map[string][]string{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for arm, cmds := range streams {
		wg.Add(1)
		go func(arm string, cmds []action.Command) {
			defer wg.Done()
			vs := armScript(indexed, m, cmds)
			mu.Lock()
			got[arm] = vs
			mu.Unlock()
		}(arm, cmds)
	}
	wg.Wait()
	stop.Store(true)
	bumps.Wait()

	for arm := range streams {
		for i := range want[arm] {
			if got[arm][i] != want[arm][i] {
				t.Errorf("%s cmd %d: under-load verdict %q, serial brute %q", arm, i, got[arm][i], want[arm][i])
			}
		}
	}
	// Epoch churn restamps the geometrically immutable index rather than
	// rebuilding it: only the very first index counts as a true build.
	if rebuilds := reg.Counter(obs.CounterSimIndexRebuilds).Value(); rebuilds != 1 {
		t.Errorf("epoch churn should restamp, not rebuild: got %d true builds, want 1", rebuilds)
	}
}

// TestIndexTelemetry checks the index instruments: candidate counter and
// rebuild counter/histogram accumulate on the default path.
func TestIndexTelemetry(t *testing.T) {
	lab, err := labs.Testbed()
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry("index-telemetry")
	s, err := New(lab, WithObserver(reg))
	if err != nil {
		t.Fatal(err)
	}
	m := lab.InitialModelState()
	// Straight into the grid body: the index must surface it as a
	// candidate for the narrow phase to reject.
	if err := s.ValidTrajectory(moveOn("viperx", geom.V(0.35, 0.25, 0.05)), m); err == nil {
		t.Fatal("grid-collision move accepted")
	}
	if got := reg.Counter(obs.CounterSimIndexRebuilds).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", obs.CounterSimIndexRebuilds, got)
	}
	if got := reg.Counter(obs.CounterSimIndexCandidates).Value(); got == 0 {
		t.Errorf("%s = 0, want > 0", obs.CounterSimIndexCandidates)
	}
	if got := reg.Histogram(obs.HistSimIndexRebuild).Count(); got != 1 {
		t.Errorf("%s count = %d, want 1", obs.HistSimIndexRebuild, got)
	}
	// A second check on the same epoch must not rebuild.
	if err := s.ValidTrajectory(moveOn("viperx", geom.V(0.15, 0.30, 0.25)), m); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter(obs.CounterSimIndexRebuilds).Value(); got != 1 {
		t.Errorf("same-epoch recheck rebuilt the index: %s = %d, want 1", obs.CounterSimIndexRebuilds, got)
	}
}
