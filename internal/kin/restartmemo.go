package kin

import (
	"math"
	"sync"

	"repro/internal/geom"
)

// restartMemoCap bounds each chain's restart memo; a full memo's map
// takes under 80 KB.
const restartMemoCap = 256

// restartMemoDOF is the widest chain whose descents fit a memo value;
// wider chains bypass the memo.
const restartMemoDOF = 6

// restartKey is the exact bits of everything a restart descent reads
// apart from its seed: the target, the restart index (the seed is a
// function of the chain's joint limits and r alone) and the options
// solveFrom reads. Restarts is absent — it only decides how many
// descents Solve runs.
type restartKey struct {
	target       [3]uint64
	r            int
	tol          uint64
	maxIters     int
	lambda       uint64
	orientWeight uint64
	toolAxis     [3]uint64
}

// restartResult is one descent's outcome: solveFrom's configuration and
// residuals.
type restartResult struct {
	q             [restartMemoDOF]float64
	posErr, axErr float64
}

// restartMemo records restart descents (r ≥ 1) of one chain. The seed of
// restart r does not depend on q0, so Solve calls that differ only in q0
// run the same restart descents; the memo answers a repeat with the bits
// the descent returned the first time. Every entry is the result of a
// pure function of its key, so the memo changes when work happens, never
// what Solve returns. Descent r = 0 starts from q0 and is never recorded.
// When full, the memo is cleared.
type restartMemo struct {
	mu           sync.Mutex
	m            map[restartKey]restartResult
	hits, misses int64
}

func newRestartKey(target geom.Vec3, r int, opt IKOptions) restartKey {
	b := math.Float64bits
	return restartKey{
		target:       [3]uint64{b(target.X), b(target.Y), b(target.Z)},
		r:            r,
		tol:          b(opt.Tol),
		maxIters:     opt.MaxIters,
		lambda:       b(opt.Lambda),
		orientWeight: b(opt.OrientWeight),
		toolAxis:     [3]uint64{b(opt.ToolAxis.X), b(opt.ToolAxis.Y), b(opt.ToolAxis.Z)},
	}
}

func (m *restartMemo) load(k restartKey) (restartResult, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	res, ok := m.m[k]
	if ok {
		m.hits++
	} else {
		m.misses++
	}
	return res, ok
}

func (m *restartMemo) store(k restartKey, res restartResult) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.m == nil {
		m.m = make(map[restartKey]restartResult)
	} else if len(m.m) >= restartMemoCap {
		clear(m.m)
	}
	m.m[k] = res
}

// restartDescent runs restart r's descent toward target (r ≥ 1), or
// replays it from the chain's memo. Like solveFrom, the configuration it
// returns aliases sc.q; seed is scratch for the restart seed.
func (c *Chain) restartDescent(target geom.Vec3, r int, opt IKOptions, seed []float64, sc *ikScratch) ([]float64, float64, float64) {
	n := len(c.Links)
	if n > restartMemoDOF {
		c.restartSeed(r, seed)
		return c.solveFrom(target, seed, opt, sc)
	}
	key := newRestartKey(target, r, opt)
	if res, ok := c.restarts.load(key); ok {
		copy(sc.q, res.q[:n])
		return sc.q, res.posErr, res.axErr
	}
	c.restartSeed(r, seed)
	q, posErr, axErr := c.solveFrom(target, seed, opt, sc)
	res := restartResult{posErr: posErr, axErr: axErr}
	copy(res.q[:], q)
	c.restarts.store(key, res)
	return q, posErr, axErr
}

// restartSeed writes restart r's seed into seed: a deterministic spread
// across the joint space.
func (c *Chain) restartSeed(r int, seed []float64) {
	for i, l := range c.Links {
		span := l.MaxAngle - l.MinAngle
		frac := math.Mod(0.318*float64(r)+0.618*float64(i+1), 1.0)
		seed[i] = l.MinAngle + span*frac
	}
}
