package kin

import (
	"math"
	"testing"

	"repro/internal/geom"
)

func TestPlanCacheHitReturnsColdSolution(t *testing.T) {
	p := mustProfile(t, ModelViperX300, geom.IdentityPose())
	pc := NewPlanCache(8)
	tgt := geom.V(0.32, 0.22, 0.2)
	opt := DefaultIKOptions()

	cold, err := p.Chain.PlanJointMove(p.Home, tgt, opt)
	if err != nil {
		t.Fatal(err)
	}
	first, err := pc.Plan(p.Chain, p.Home, tgt, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !equalSlice(first.To, cold.To) {
		t.Errorf("cache miss solution %v differs from cold solve %v", first.To, cold.To)
	}
	second, err := pc.Plan(p.Chain, p.Home, tgt, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !equalSlice(second.To, cold.To) {
		t.Errorf("cache hit solution %v differs from cold solve %v", second.To, cold.To)
	}
	st := pc.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss", st)
	}
}

func TestPlanCacheHitSharesNoStateWithCache(t *testing.T) {
	p := mustProfile(t, ModelViperX300, geom.IdentityPose())
	pc := NewPlanCache(8)
	tgt := geom.V(0.32, 0.22, 0.2)
	opt := DefaultIKOptions()

	first, err := pc.Plan(p.Chain, p.Home, tgt, opt)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]float64(nil), first.To...)
	for i := range first.To {
		first.To[i] = math.NaN() // caller scribbles on its trajectory
	}
	second, err := pc.Plan(p.Chain, p.Home, tgt, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !equalSlice(second.To, want) {
		t.Errorf("cached entry corrupted by caller mutation: %v, want %v", second.To, want)
	}
}

func TestPlanCacheKeySeparatesInputs(t *testing.T) {
	p := mustProfile(t, ModelViperX300, geom.IdentityPose())
	moved := mustProfile(t, ModelViperX300, geom.PoseAt(geom.V(0.8, 0, 0)))
	pc := NewPlanCache(32)
	opt := DefaultIKOptions()
	bare := opt
	bare.OrientWeight = 0

	if _, err := pc.Plan(p.Chain, p.Home, geom.V(0.32, 0.22, 0.2), opt); err != nil {
		t.Fatal(err)
	}
	// Different target, different options, different start, different
	// chain placement: all misses.
	others := []struct {
		name string
		run  func() error
	}{
		{"target", func() error {
			_, err := pc.Plan(p.Chain, p.Home, geom.V(0.32, 0.22, 0.25), opt)
			return err
		}},
		{"options", func() error {
			_, err := pc.Plan(p.Chain, p.Home, geom.V(0.32, 0.22, 0.2), bare)
			return err
		}},
		{"start", func() error {
			_, err := pc.Plan(p.Chain, p.Sleep, geom.V(0.32, 0.22, 0.2), opt)
			return err
		}},
		{"base", func() error {
			_, err := pc.Plan(moved.Chain, moved.Home, geom.V(0.32+0.8, 0.22, 0.2), opt)
			return err
		}},
	}
	for _, o := range others {
		before := pc.Stats()
		if err := o.run(); err != nil {
			t.Fatalf("%s: %v", o.name, err)
		}
		after := pc.Stats()
		if after.Misses != before.Misses+1 {
			t.Errorf("%s: expected a miss, stats %+v -> %+v", o.name, before, after)
		}
		if after.Hits != before.Hits {
			t.Errorf("%s: unexpected hit, stats %+v -> %+v", o.name, before, after)
		}
	}
}

func TestPlanCacheQuantizationAbsorbsNoise(t *testing.T) {
	p := mustProfile(t, ModelViperX300, geom.IdentityPose())
	pc := NewPlanCache(8)
	opt := DefaultIKOptions()
	tgt := geom.V(0.32, 0.22, 0.2)
	if _, err := pc.Plan(p.Chain, p.Home, tgt, opt); err != nil {
		t.Fatal(err)
	}
	// Sub-quantum jitter on both the start configuration and the target
	// maps to the same key.
	from := append([]float64(nil), p.Home...)
	for i := range from {
		from[i] += JointQuantum / 8
	}
	jittered := tgt.Add(geom.V(TargetQuantum/8, -TargetQuantum/8, TargetQuantum/8))
	if _, err := pc.Plan(p.Chain, from, jittered, opt); err != nil {
		t.Fatal(err)
	}
	if st := pc.Stats(); st.Hits != 1 {
		t.Errorf("sub-quantum jitter missed the cache: %+v", st)
	}
}

func TestPlanCacheEviction(t *testing.T) {
	p := mustProfile(t, ModelViperX300, geom.IdentityPose())
	pc := NewPlanCache(2)
	opt := DefaultIKOptions()
	targets := []geom.Vec3{
		geom.V(0.32, 0.22, 0.2),
		geom.V(0.30, 0.10, 0.22),
		geom.V(0.25, -0.15, 0.24),
	}
	for _, tgt := range targets {
		if _, err := pc.Plan(p.Chain, p.Home, tgt, opt); err != nil {
			t.Fatal(err)
		}
	}
	if pc.Len() != 2 {
		t.Errorf("Len = %d, want capacity 2", pc.Len())
	}
	st := pc.Stats()
	if st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
	// The oldest entry (targets[0]) is gone; the newest two still hit.
	if _, err := pc.Plan(p.Chain, p.Home, targets[2], opt); err != nil {
		t.Fatal(err)
	}
	if _, err := pc.Plan(p.Chain, p.Home, targets[1], opt); err != nil {
		t.Fatal(err)
	}
	if st := pc.Stats(); st.Hits != 2 {
		t.Errorf("hits = %d, want 2 (LRU retained wrong entries)", st.Hits)
	}
	if _, err := pc.Plan(p.Chain, p.Home, targets[0], opt); err != nil {
		t.Fatal(err)
	}
	if st := pc.Stats(); st.Misses != 4 {
		t.Errorf("misses = %d, want 4 (evicted entry should re-solve)", st.Misses)
	}
}

// TestPlanCacheMissSolvesCold: a miss must not be seeded from a cached
// neighbour. Warmed from a target a few centimetres away, the solver can
// land on a different IK branch than the cold schedule, and a simulator
// planning through the cache would then check a path the uncached world
// does not take.
func TestPlanCacheMissSolvesCold(t *testing.T) {
	p := mustProfile(t, ModelViperX300, geom.IdentityPose())
	pc := NewPlanCache(8)
	opt := DefaultIKOptions()
	anchor := geom.V(0.32, 0.22, 0.2)
	if _, err := pc.Plan(p.Chain, p.Home, anchor, opt); err != nil {
		t.Fatal(err)
	}
	for _, near := range []geom.Vec3{
		anchor.Add(geom.V(0.02, -0.01, 0.03)),
		anchor.Add(geom.V(-0.05, 0.04, 0.01)),
		geom.V(-0.30, 0.15, 0.25),
	} {
		cold, err := p.Chain.PlanJointMove(p.Home, near, opt)
		if err != nil {
			t.Fatal(err)
		}
		got, err := pc.Plan(p.Chain, p.Home, near, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !equalSlice(got.To, cold.To) {
			t.Errorf("miss at %v solved %v, cold solve %v", near, got.To, cold.To)
		}
	}
}

func TestPlanCacheErrorsNotCached(t *testing.T) {
	p := mustProfile(t, ModelViperX300, geom.IdentityPose())
	pc := NewPlanCache(8)
	opt := DefaultIKOptions()
	bad := geom.V(5, 5, 5)
	for i := 0; i < 2; i++ {
		if _, err := pc.Plan(p.Chain, p.Home, bad, opt); err == nil {
			t.Fatal("unreachable target planned successfully")
		}
	}
	if pc.Len() != 0 {
		t.Errorf("error cached: Len = %d", pc.Len())
	}
	if st := pc.Stats(); st.Misses != 2 || st.Hits != 0 {
		t.Errorf("stats %+v, want 2 misses 0 hits", st)
	}
}

func BenchmarkPlanCacheHit(b *testing.B) {
	p, err := NewProfile(ModelViperX300, geom.IdentityPose())
	if err != nil {
		b.Fatal(err)
	}
	pc := NewPlanCache(64)
	tgt := geom.V(0.32, 0.22, 0.2)
	opt := DefaultIKOptions()
	if _, err := pc.Plan(p.Chain, p.Home, tgt, opt); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pc.Plan(p.Chain, p.Home, tgt, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlanColdSolve(b *testing.B) {
	p, err := NewProfile(ModelViperX300, geom.IdentityPose())
	if err != nil {
		b.Fatal(err)
	}
	tgt := geom.V(0.32, 0.22, 0.2)
	opt := DefaultIKOptions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Chain.PlanJointMove(p.Home, tgt, opt); err != nil {
			b.Fatal(err)
		}
	}
}
