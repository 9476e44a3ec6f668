package kin

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/geom"
)

// unmemoizedSolve is Solve with every descent run: the same schedule,
// fallback and error texts, each restart seeded by its formula and
// descended by solveFrom, so it shares no code with the memo.
func unmemoizedSolve(c *Chain, target geom.Vec3, q0 []float64, opt IKOptions) ([]float64, error) {
	if target.Dist(c.Base.T) > c.Reach()+opt.Tol {
		return nil, fmt.Errorf("%w: target %v is %.3f m from base, reach is %.3f m",
			ErrUnreachable, target, target.Dist(c.Base.T), c.Reach())
	}
	n := len(c.Links)
	var best, bestFail []float64
	bestScore, bestPosErr := math.Inf(1), math.Inf(1)
	for r := 0; r <= opt.Restarts; r++ {
		seed := append([]float64(nil), q0...)
		if r > 0 {
			for i, l := range c.Links {
				seed[i] = l.MinAngle + (l.MaxAngle-l.MinAngle)*math.Mod(0.318*float64(r)+0.618*float64(i+1), 1.0)
			}
		}
		q, posErr, axErr := c.solveFrom(target, seed, opt, newIKScratch(n, opt))
		if posErr > opt.Tol {
			if posErr < bestPosErr {
				bestPosErr = posErr
				if opt.OrientWeight > 0 {
					bestFail = append([]float64(nil), q...)
				}
			}
			continue
		}
		if axErr < bestScore {
			bestScore, best, bestPosErr = axErr, append([]float64(nil), q...), posErr
		}
		if opt.OrientWeight == 0 || axErr < 0.1 {
			break
		}
	}
	if best != nil {
		return best, nil
	}
	if opt.OrientWeight == 0 {
		return nil, fmt.Errorf("%w: best residual %.4f m > tol %.4f m for target %v",
			ErrUnreachable, bestPosErr, opt.Tol, target)
	}
	bare := opt
	bare.OrientWeight = 0
	for _, seed := range [][]float64{q0, bestFail} {
		if seed == nil {
			continue
		}
		if q, posErr, _ := c.solveFrom(target, seed, bare, newIKScratch(n, bare)); posErr <= bare.Tol {
			return append([]float64(nil), q...), nil
		}
	}
	return unmemoizedSolve(c, target, q0, bare)
}

// memoCase is one Solve call.
type memoCase struct {
	tgt geom.Vec3
	q0  []float64
	opt IKOptions
}

// solveResult is what Solve returned: the configuration's bits or the
// error's text.
type solveResult struct {
	q   []float64
	err string
}

func solveCase(c *Chain, mc memoCase) solveResult {
	return result(c.Solve(mc.tgt, mc.q0, mc.opt))
}

func result(q []float64, err error) solveResult {
	if err != nil {
		return solveResult{err: err.Error()}
	}
	return solveResult{q: q}
}

func (r solveResult) same(o solveResult) bool { return r.err == o.err && sameBits(r.q, o.q) }

// memoCases returns Solve calls for p that repeat every golden target
// (converged, fallback-resolved and unreachable) from three starts —
// the golden seed, Home and a random configuration — with the default
// options and position-only, so restarts repeat across calls that
// differ in q0 and keys must separate the options.
func memoCases(p *Profile, rng *rand.Rand) []memoCase {
	bare := DefaultIKOptions()
	bare.OrientWeight = 0
	targets, seeds := goldenTargets(p, rng)
	var cases []memoCase
	for i, tgt := range targets {
		randQ := make([]float64, p.Chain.DOF())
		for j, l := range p.Chain.Links {
			randQ[j] = l.MinAngle + (l.MaxAngle-l.MinAngle)*rng.Float64()
		}
		for _, q0 := range [][]float64{seeds[i], p.Home, randQ} {
			for _, opt := range []IKOptions{DefaultIKOptions(), bare} {
				cases = append(cases, memoCase{tgt: tgt, q0: q0, opt: opt})
			}
		}
	}
	return cases
}

// coldResults runs every case without the memo.
func coldResults(c *Chain, cases []memoCase) []solveResult {
	want := make([]solveResult, len(cases))
	for i, mc := range cases {
		want[i] = result(unmemoizedSolve(c, mc.tgt, mc.q0, mc.opt))
	}
	return want
}

// TestRestartMemoParity: on every profile, Solve through one chain's
// restart memo returns the bits (or the error text) the unmemoized
// schedule returns, over repeated converged, orientation-fallback and unreachable
// targets from varied starts, and the memo answers some of the
// restarts.
func TestRestartMemoParity(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	var hits, fallbacks, failures int64
	for _, m := range allModels() {
		p := mustProfile(t, m, goldenBase(m))
		cases := memoCases(p, rng)
		want := coldResults(p.Chain, cases)
		before := p.Chain.restarts.hits
		warm := ikFallbackWarmHits.Load()
		for i, mc := range cases {
			got := solveCase(p.Chain, mc)
			if !got.same(want[i]) {
				t.Fatalf("%v case %d (target %v, orient %v): memo %v %q, cold %v %q",
					m, i, mc.tgt, mc.opt.OrientWeight, got.q, got.err, want[i].q, want[i].err)
			}
			if strings.Contains(got.err, "best residual") {
				failures++
			}
		}
		hits += p.Chain.restarts.hits - before
		fallbacks += ikFallbackWarmHits.Load() - warm
	}
	if hits == 0 || fallbacks == 0 || failures == 0 {
		t.Fatalf("memo hits %d, warm fallbacks %d, full-schedule failures %d: each must occur", hits, fallbacks, failures)
	}
}

// TestRestartMemoConcurrent: four goroutines solving through one chain,
// each walking the cases from a different offset so they race on the
// same keys and on the memo's clearing, all get the cold bits.
func TestRestartMemoConcurrent(t *testing.T) {
	p := mustProfile(t, ModelViperX300, goldenBase(ModelViperX300))
	cases := memoCases(p, rand.New(rand.NewSource(41)))
	want := coldResults(p.Chain, cases)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range cases {
				i := (k + g*len(cases)/4) % len(cases)
				if got := solveCase(p.Chain, cases[i]); !got.same(want[i]) {
					t.Errorf("goroutine %d case %d: memo %v %q, cold %v %q",
						g, i, got.q, got.err, want[i].q, want[i].err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if p.Chain.restarts.hits == 0 {
		t.Error("no restart descent was answered by the memo")
	}
}

// TestRestartMemoBound: recording more distinct descents than the cap
// clears the memo instead of growing it, a repeat replays the recorded
// descent exactly, and every answer equals the descent from restart r's
// seed.
func TestRestartMemoBound(t *testing.T) {
	p := mustProfile(t, ModelUR3e, geom.IdentityPose())
	c := p.Chain
	opt := DefaultIKOptions()
	n := c.DOF()
	seed, coldSeed := make([]float64, n), make([]float64, n)
	sc, coldSc := newIKScratch(n, opt), newIKScratch(n, opt)
	descend := func(tgt geom.Vec3, r int) {
		t.Helper()
		q, posErr, axErr := c.restartDescent(tgt, r, opt, seed, sc)
		c.restartSeed(r, coldSeed)
		wq, wPos, wAx := c.solveFrom(tgt, coldSeed, opt, coldSc)
		if !sameBits(q, wq) || math.Float64bits(posErr) != math.Float64bits(wPos) ||
			math.Float64bits(axErr) != math.Float64bits(wAx) {
			t.Fatalf("restart %d to %v: %v %v %v, cold %v %v %v", r, tgt, q, posErr, axErr, wq, wPos, wAx)
		}
	}
	cleared := false
	for k := 0; k < 3*restartMemoCap; k++ {
		tgt := geom.V(0.2+0.0005*float64(k), 0.05, 0.2)
		before := len(c.restarts.m)
		descend(tgt, 1+k%opt.Restarts)
		if size := len(c.restarts.m); size > restartMemoCap {
			t.Fatalf("memo holds %d entries, cap %d", size, restartMemoCap)
		} else if size < before {
			cleared = true
		}
	}
	if !cleared {
		t.Fatal("the memo never cleared")
	}
	tgt := geom.V(0.2, 0.05, 0.2)
	descend(tgt, 2) // recorded after the last clear, or recorded now
	hits := c.restarts.hits
	descend(tgt, 2)
	if c.restarts.hits != hits+1 {
		t.Error("a repeated descent missed the memo")
	}
}

// TestRestartMemoBypassesWideChains: a chain with more joints than a
// memo value holds solves without recording anything, with the
// unmemoized bits.
func TestRestartMemoBypassesWideChains(t *testing.T) {
	c := &Chain{Name: "seven", Base: geom.IdentityPose()}
	for i := 0; i < restartMemoDOF+1; i++ {
		c.Links = append(c.Links, DHLink{A: 0.08, D: 0.02 * float64(i%2), Alpha: math.Pi / 2 * float64(i%3-1), MinAngle: -2.5, MaxAngle: 2.5})
	}
	tgt, err := c.EndEffector([]float64{0.4, -0.6, 0.9, 0.3, -0.2, 0.5, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	// One iteration per descent cannot converge, so the whole restart
	// schedule runs.
	short := DefaultIKOptions()
	short.MaxIters = 1
	for _, opt := range []IKOptions{DefaultIKOptions(), short} {
		for _, q0 := range [][]float64{make([]float64, c.DOF()), {2, 2, 2, 2, 2, 2, 2}} {
			mc := memoCase{tgt: tgt, q0: q0, opt: opt}
			got, want := solveCase(c, mc), result(unmemoizedSolve(c, mc.tgt, mc.q0, mc.opt))
			if !got.same(want) {
				t.Fatalf("q0 %v: %v %q, unmemoized %v %q", q0, got.q, got.err, want.q, want.err)
			}
		}
	}
	if c.restarts.m != nil || c.restarts.hits+c.restarts.misses != 0 {
		t.Errorf("a %d-joint chain used the memo: %d entries", c.DOF(), len(c.restarts.m))
	}
}

// TestRestartMemoKeySensitivity: a descent repeated with the same
// target, restart and options hits, also under a different restart
// count, which no descent reads; one ULP of any target coordinate or
// float option, or a different restart or iteration bound, misses and
// runs its own descent.
func TestRestartMemoKeySensitivity(t *testing.T) {
	p := mustProfile(t, ModelNed2, geom.IdentityPose())
	c := p.Chain
	up := func(v float64) float64 { return math.Nextafter(v, math.Inf(1)) }
	base := DefaultIKOptions()
	tgt := geom.V(0.21, -0.07, 0.18)
	n := c.DOF()
	seed, coldSeed := make([]float64, n), make([]float64, n)
	descend := func(tgt geom.Vec3, r int, opt IKOptions) (hit bool) {
		t.Helper()
		hits := c.restarts.hits
		q, posErr, axErr := c.restartDescent(tgt, r, opt, seed, newIKScratch(n, opt))
		c.restartSeed(r, coldSeed)
		wq, wPos, wAx := c.solveFrom(tgt, coldSeed, opt, newIKScratch(n, opt))
		if !sameBits(q, wq) || math.Float64bits(posErr) != math.Float64bits(wPos) ||
			math.Float64bits(axErr) != math.Float64bits(wAx) {
			t.Fatalf("restart %d to %v: %v %v %v, cold %v %v %v", r, tgt, q, posErr, axErr, wq, wPos, wAx)
		}
		return c.restarts.hits > hits
	}
	descend(tgt, 3, base)
	moreRestarts := base
	moreRestarts.Restarts++
	if !descend(tgt, 3, base) || !descend(tgt, 3, moreRestarts) {
		t.Fatal("a repeated descent missed")
	}
	type variant struct {
		name string
		tgt  geom.Vec3
		r    int
		edit func(*IKOptions)
	}
	for _, v := range []variant{
		{"target x", geom.V(up(tgt.X), tgt.Y, tgt.Z), 3, nil},
		{"target y", geom.V(tgt.X, up(tgt.Y), tgt.Z), 3, nil},
		{"target z", geom.V(tgt.X, tgt.Y, up(tgt.Z)), 3, nil},
		{"restart", tgt, 4, nil},
		{"tol", tgt, 3, func(o *IKOptions) { o.Tol = up(o.Tol) }},
		{"max iters", tgt, 3, func(o *IKOptions) { o.MaxIters++ }},
		{"lambda", tgt, 3, func(o *IKOptions) { o.Lambda = up(o.Lambda) }},
		{"orient weight", tgt, 3, func(o *IKOptions) { o.OrientWeight = up(o.OrientWeight) }},
		{"tool axis x", tgt, 3, func(o *IKOptions) { o.ToolAxis.X = up(o.ToolAxis.X) }},
		{"tool axis y", tgt, 3, func(o *IKOptions) { o.ToolAxis.Y = up(o.ToolAxis.Y) }},
		{"tool axis z", tgt, 3, func(o *IKOptions) { o.ToolAxis.Z = up(o.ToolAxis.Z) }},
	} {
		opt := base
		if v.edit != nil {
			v.edit(&opt)
		}
		if descend(v.tgt, v.r, opt) {
			t.Errorf("%s: one step off the recorded descent hit the memo", v.name)
		}
	}
}
