package kin

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/geom"
)

// ikGoldenHashes pins Solve's exact answers: the FNV-64a hash of every
// result's Float64bits (and every error's text) over goldenTargets, per
// profile. The hashes were recorded with the two-pass solver (FK for the
// residual, FK again for the Jacobian); the fused single-pass iteration
// must reproduce them bit for bit.
var ikGoldenHashes = map[Model]uint64{
	ModelUR3e:      0xa94f1f29cfaf3f3d,
	ModelUR5e:      0x2b02e4cbf3037a09,
	ModelViperX300: 0x3ffd2a4d26a7bf40,
	ModelNed2:      0x824ccaf1b0630bde,
	ModelN9:        0x2509f0859397cf66,
}

// goldenBase is a rotated, translated mount, so the base pose takes part
// in every FK product.
func goldenBase(m Model) geom.Pose {
	return geom.Pose{
		R: geom.RPY(0.05*float64(m), -0.03, 0.4+0.3*float64(m)),
		T: geom.V(0.2*float64(m), -0.35, 0.1),
	}
}

// goldenTargets returns a seeded target set for p: configurations drawn
// within the joint limits (reachable, often not tool-down), points
// scattered around the base (some out of reach, some only by the
// position-only fallback), the two behind-and-below targets that take
// the warm-started fallback, and a point past the reach sphere. Seeds
// alternate between Home and a random configuration.
func goldenTargets(p *Profile, rng *rand.Rand) (targets []geom.Vec3, seeds [][]float64) {
	c := p.Chain
	randQ := func() []float64 {
		q := make([]float64, c.DOF())
		for i, l := range c.Links {
			q[i] = l.MinAngle + (l.MaxAngle-l.MinAngle)*rng.Float64()
		}
		return q
	}
	reach := c.Reach()
	for i := 0; i < 16; i++ {
		ee, _ := c.EndEffector(randQ())
		targets = append(targets, ee)
	}
	for i := 0; i < 16; i++ {
		local := geom.V(
			reach*(2*rng.Float64()-1),
			reach*(2*rng.Float64()-1),
			reach*(1.5*rng.Float64()-0.5))
		targets = append(targets, c.Base.Apply(local))
	}
	for _, local := range []geom.Vec3{
		geom.V(-reach*0.7, -reach*0.3, -reach*0.15),
		geom.V(-reach*0.7, 0, -reach*0.15),
		geom.V(0.1, 0.1, 3.0),
	} {
		targets = append(targets, c.Base.Apply(local))
	}
	for i := range targets {
		if i%2 == 0 {
			seeds = append(seeds, p.Home)
		} else {
			seeds = append(seeds, randQ())
		}
	}
	return targets, seeds
}

// TestIKGolden: Solve's results over seeded targets — converged,
// fallback-resolved and unreachable alike — hash to the recorded values
// on every profile. The run must exercise the warm-started orientation
// fallback and a full-schedule failure, or the hash pins too little.
func TestIKGolden(t *testing.T) {
	var fallbacks, failures, solved int64
	for _, m := range allModels() {
		p := mustProfile(t, m, goldenBase(m))
		rng := rand.New(rand.NewSource(int64(1000 + m)))
		targets, seeds := goldenTargets(p, rng)
		h := fnv.New64a()
		var buf [8]byte
		put := func(bits uint64) {
			for i := range buf {
				buf[i] = byte(bits >> (8 * i))
			}
			h.Write(buf[:])
		}
		before := ikFallbackWarmHits.Load()
		for i, tgt := range targets {
			q, err := p.Chain.Solve(tgt, seeds[i], DefaultIKOptions())
			if err != nil {
				if !errors.Is(err, ErrUnreachable) {
					t.Fatalf("%v target %d: %v", m, i, err)
				}
				if strings.Contains(err.Error(), "best residual") {
					failures++
				}
				fmt.Fprintf(h, "err:%s;", err)
				continue
			}
			solved++
			put(uint64(len(q)))
			for _, v := range q {
				put(math.Float64bits(v))
			}
		}
		fallbacks += ikFallbackWarmHits.Load() - before
		if got, want := h.Sum64(), ikGoldenHashes[m]; got != want {
			t.Errorf("%v: Solve golden hash %#x, want %#x", m, got, want)
		}
	}
	if fallbacks == 0 {
		t.Error("no target took the warm-started orientation fallback")
	}
	if failures == 0 {
		t.Error("no target failed the full restart schedule")
	}
	t.Logf("solved %d, warm fallbacks %d, full-schedule failures %d", solved, fallbacks, failures)
}

func BenchmarkSolve(b *testing.B) {
	p, err := NewProfile(ModelUR3e, geom.IdentityPose())
	if err != nil {
		b.Fatal(err)
	}
	targets := []geom.Vec3{
		geom.V(0.25, 0.10, 0.20), geom.V(0.20, -0.15, 0.15),
		geom.V(0.30, 0.05, 0.10), geom.V(0.15, 0.20, 0.25),
	}
	opt := DefaultIKOptions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Chain.Solve(targets[i%len(targets)], p.Home, opt); err != nil {
			b.Fatal(err)
		}
	}
}
