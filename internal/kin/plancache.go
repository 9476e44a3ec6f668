package kin

import (
	"container/list"
	"math"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/geom"
)

// Quantization granularity for plan-cache keys. Start configurations and
// targets are snapped to these grids before keying, so bit-level float
// noise (formatting round-trips, dead-reckoned joint echoes) cannot split
// what is physically the same move across keys. Both quanta sit an order
// of magnitude below DefaultIKOptions.Tol (1 mm): two queries that map to
// the same key differ by less than the solver tolerance, so serving one's
// solution for the other stays within the solve contract.
const (
	// JointQuantum is the start-configuration grid (rad).
	JointQuantum = 1e-4
	// TargetQuantum is the Cartesian target grid (m) — 0.1 mm.
	TargetQuantum = 1e-4
)

// PlanCacheStats is a point-in-time snapshot of cache effectiveness.
type PlanCacheStats struct {
	// Hits is the number of Plan calls answered from the cache.
	Hits int64
	// Misses is the number of Plan calls that had to solve.
	Misses int64
	// Evictions is the number of entries dropped by the LRU bound.
	Evictions int64
}

// PlanCache memoizes PlanJointMove solutions behind a bounded LRU. Keys
// are (chain identity, quantized start configuration, quantized target,
// IK-options fingerprint); values are the solved goal configurations.
// A hit returns a fresh Trajectory sharing no mutable state with the
// cache, so callers may treat it exactly like a cold plan.
//
// A miss runs exactly the cold PlanJointMove and a hit replays that
// answer, so cache state can change when planning work happens, never
// which IK branch a move takes: a simulator planning through the cache
// checks the same joint path that an uncached planner (the ground-truth
// world's) executes.
//
// A PlanCache is safe for concurrent use; the IK solve itself runs
// outside the cache lock.
type PlanCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64

	// Optional external counters mirroring the stats (set once before
	// concurrent use; *obs.Counter satisfies the interface).
	cHits, cMisses, cEvictions CacheCounter
}

// CacheCounter is the narrow event-sink a PlanCache publishes to — the
// shape of obs.Counter, declared here so kin does not depend on the
// telemetry package.
type CacheCounter interface{ Add(n int64) }

// planEntry is one cached solution. to is owned by the cache and never
// handed out by reference.
type planEntry struct {
	key string
	to  []float64
}

// DefaultPlanCacheCapacity bounds the cache when the caller does not
// choose: a deck has tens of stations and each arm a handful of resting
// configurations, so a few hundred entries hold a whole run's working
// set.
const DefaultPlanCacheCapacity = 512

// NewPlanCache returns an empty cache holding at most capacity entries
// (DefaultPlanCacheCapacity if capacity <= 0).
func NewPlanCache(capacity int) *PlanCache {
	if capacity <= 0 {
		capacity = DefaultPlanCacheCapacity
	}
	return &PlanCache{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[string]*list.Element),
	}
}

// SetCounters mirrors future cache events into external counters
// (telemetry). Call before the cache sees concurrent use; nil counters
// are allowed.
func (p *PlanCache) SetCounters(hits, misses, evictions CacheCounter) {
	p.mu.Lock()
	p.cHits, p.cMisses, p.cEvictions = hits, misses, evictions
	p.mu.Unlock()
}

// count bumps an internal stat and its external mirror, if any.
func count(stat *atomic.Int64, c CacheCounter) {
	stat.Add(1)
	if c != nil {
		c.Add(1)
	}
}

// SetWarmStart does nothing: a miss always solves cold. It remains only
// for its one caller, exactPlans in rabitbench/campaign.go, and goes away
// with that call.
func (p *PlanCache) SetWarmStart(bool) {}

// Stats returns current counters.
func (p *PlanCache) Stats() PlanCacheStats {
	return PlanCacheStats{
		Hits:      p.hits.Load(),
		Misses:    p.misses.Load(),
		Evictions: p.evictions.Load(),
	}
}

// Len returns the number of cached solutions.
func (p *PlanCache) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ll.Len()
}

// Key returns the cache key Plan would use — exported for layers that
// key their own state (the simulator's verdict cache) on the same
// identity.
func (p *PlanCache) Key(c *Chain, from []float64, target geom.Vec3, opt IKOptions) string {
	return string(appendPlanKey(nil, c, from, target, opt))
}

// Plan returns the trajectory from from to the IK solution of target,
// serving a memoized solution when one exists and solving cold otherwise.
// Errors are never cached.
func (p *PlanCache) Plan(c *Chain, from []float64, target geom.Vec3, opt IKOptions) (*Trajectory, error) {
	key := appendPlanKey(nil, c, from, target, opt)

	p.mu.Lock()
	if el, ok := p.items[string(key)]; ok {
		p.ll.MoveToFront(el)
		to := append([]float64(nil), el.Value.(*planEntry).to...)
		count(&p.hits, p.cHits)
		p.mu.Unlock()
		return &Trajectory{Chain: c, From: from, To: to}, nil
	}
	count(&p.misses, p.cMisses)
	p.mu.Unlock()

	tr, err := c.PlanJointMove(from, target, opt)
	if err != nil {
		return nil, err
	}

	p.mu.Lock()
	if _, ok := p.items[string(key)]; !ok {
		el := p.ll.PushFront(&planEntry{key: string(key), to: append([]float64(nil), tr.To...)})
		p.items[string(key)] = el
		for p.ll.Len() > p.cap {
			oldest := p.ll.Back()
			p.ll.Remove(oldest)
			delete(p.items, oldest.Value.(*planEntry).key)
			count(&p.evictions, p.cEvictions)
		}
	}
	p.mu.Unlock()
	return tr, nil
}

// appendPlanKey appends the cache key: the chain identity and IK-options
// fingerprint (everything that must match for two solutions to be
// interchangeable), then the quantized start configuration and target.
func appendPlanKey(b []byte, c *Chain, from []float64, target geom.Vec3, opt IKOptions) []byte {
	b = append(b, c.Name...)
	b = append(b, '@')
	b = appendQuantized(b, c.Base.T.X, TargetQuantum)
	b = appendQuantized(b, c.Base.T.Y, TargetQuantum)
	b = appendQuantized(b, c.Base.T.Z, TargetQuantum)
	b = append(b, '#')
	b = strconv.AppendInt(b, int64(len(c.Links)), 10)
	b = append(b, '|')
	b = strconv.AppendFloat(b, opt.Tol, 'g', -1, 64)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(opt.MaxIters), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(opt.Restarts), 10)
	b = append(b, ',')
	b = strconv.AppendFloat(b, opt.Lambda, 'g', -1, 64)
	b = append(b, ',')
	b = strconv.AppendFloat(b, opt.OrientWeight, 'g', -1, 64)
	b = append(b, ',')
	b = strconv.AppendFloat(b, opt.ToolAxis.X, 'g', -1, 64)
	b = append(b, ',')
	b = strconv.AppendFloat(b, opt.ToolAxis.Y, 'g', -1, 64)
	b = append(b, ',')
	b = strconv.AppendFloat(b, opt.ToolAxis.Z, 'g', -1, 64)
	b = append(b, "|f"...)
	for _, v := range from {
		b = appendQuantized(b, v, JointQuantum)
	}
	b = append(b, "|t"...)
	b = appendQuantized(b, target.X, TargetQuantum)
	b = appendQuantized(b, target.Y, TargetQuantum)
	b = appendQuantized(b, target.Z, TargetQuantum)
	return b
}

func appendQuantized(b []byte, v, quantum float64) []byte {
	b = append(b, ':')
	return strconv.AppendInt(b, int64(math.Round(v/quantum)), 10)
}
