package world

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/geom"
	"repro/internal/kin"
)

// SweepMemo remembers collision-free sweeps so that a world can skip
// re-running one whose inputs it has already seen clean. It may be shared
// by any number of worlds built from the same deck; it is safe for
// concurrent use, and its lock is held only to look up or record a key,
// never during a sweep.
//
// A key holds the exact bits of everything sweepLocked reads — nothing
// is quantized and nothing is hashed down — so a hit stands for a sweep
// whose every sample, and so whose verdict, would be bit-for-bit the
// same. Only clean sweeps are recorded: a clean sweep changes no world
// state, so answering it from the memo is exact, while a sweep that hits
// something always runs in full and records its damage.
//
// A key has two parts. The set is what stays put while one arm moves:
// the moving arm's identity (ID, full chain geometry, finger blade), the
// floor and walls, the obstacles, and every parked arm's labelled
// capsules. It is interned once as a set ID, so an entry is only that ID
// plus the move: roll, held volume, and start and end joints.
type SweepMemo struct {
	mu       sync.Mutex
	capacity int
	sets     map[string]uint64   // set key → set ID
	entries  map[string]struct{} // set ID + move key
	lastID   uint64              // set IDs are never reused

	hits, misses, evictions atomic.Int64

	// keys recycles key buffers across the memo's worlds: a campaign
	// world lives for one scenario, so buffers kept per world would be
	// grown again for every scenario.
	keys sync.Pool
}

// sweepKey is one sweep's memo key, in buffers reused from sweep to
// sweep.
type sweepKey struct {
	set, entry []byte
	recs       []byte   // obstacle records, in obstaclesLocked's order
	spans      [][2]int // each record's extent in recs
}

// SweepMemoStats is a point-in-time snapshot of memo effectiveness,
// shaped like kin.PlanCacheStats.
type SweepMemoStats struct {
	// Hits is the number of sweeps answered from the memo.
	Hits int64 `json:"hits"`
	// Misses is the number of sweeps that ran.
	Misses int64 `json:"misses"`
	// Evictions is the number of entries dropped by the bound.
	Evictions int64 `json:"evictions"`
}

// Add accumulates o into s.
func (s *SweepMemoStats) Add(o SweepMemoStats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Evictions += o.Evictions
}

// DefaultSweepMemoCapacity bounds a memo when the caller does not
// choose. A campaign deck variant records a few hundred clean sweeps
// over 10,000 scenarios (under 900 per deck at seed 1), so the bound
// only caps memory on far longer runs: about 4096 entries of 130 B plus
// 1024 sets of 1–1.6 KB, under 3 MB per deck.
const DefaultSweepMemoCapacity = 4096

// NewSweepMemo returns an empty memo holding at most capacity entries
// and capacity/4 sets (DefaultSweepMemoCapacity if capacity <= 0).
// A full memo is cleared whole on the next insert.
func NewSweepMemo(capacity int) *SweepMemo {
	if capacity <= 0 {
		capacity = DefaultSweepMemoCapacity
	}
	return &SweepMemo{
		capacity: capacity,
		sets:     make(map[string]uint64),
		entries:  make(map[string]struct{}),
		keys:     sync.Pool{New: func() any { return new(sweepKey) }},
	}
}

// maxSets bounds the interned sets. A set key is several times the size
// of an entry, so sets get a quarter of the entry bound (at least one).
func (m *SweepMemo) maxSets() int { return max(1, m.capacity/4) }

// Stats returns current counters.
func (m *SweepMemo) Stats() SweepMemoStats {
	return SweepMemoStats{
		Hits:      m.hits.Load(),
		Misses:    m.misses.Load(),
		Evictions: m.evictions.Load(),
	}
}

// Len returns the number of recorded sweeps and of interned sets.
func (m *SweepMemo) Len() (entries, sets int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries), len(m.sets)
}

// seen reports whether the sweep keyed by set and entry was recorded
// clean. entry's first 8 bytes are a slot the memo writes the set ID
// into.
func (m *SweepMemo) seen(set, entry []byte) bool {
	m.mu.Lock()
	id, ok := m.sets[string(set)]
	if ok {
		binary.LittleEndian.PutUint64(entry, id)
		_, ok = m.entries[string(entry)]
	}
	m.mu.Unlock()
	if ok {
		m.hits.Add(1)
	} else {
		m.misses.Add(1)
	}
	return ok
}

// record stores a clean sweep. The set is resolved again under the lock
// (another world may have cleared the memo since seen), and a memo at
// either bound is cleared before the insert, so neither bound is ever
// exceeded.
func (m *SweepMemo) record(set, entry []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	id, ok := m.sets[string(set)]
	if ok {
		binary.LittleEndian.PutUint64(entry, id)
		if _, dup := m.entries[string(entry)]; dup {
			return
		}
	}
	if len(m.entries) >= m.capacity || (!ok && len(m.sets) >= m.maxSets()) {
		m.evictions.Add(int64(len(m.entries)))
		clear(m.entries)
		clear(m.sets)
		ok = false
	}
	if !ok {
		m.lastID++
		id = m.lastID
		m.sets[string(set)] = id
		binary.LittleEndian.PutUint64(entry, id)
	}
	m.entries[string(entry)] = struct{}{}
}

// SetSweepMemo routes sweeps through m (nil runs every sweep). The memo
// may be shared across worlds built from the same deck; a world that
// differs in anything a sweep reads simply keys differently.
func (w *World) SetSweepMemo(m *SweepMemo) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.sweepMemo = m
}

// sweepKeyLocked writes the memo key of a's sweep along tr into k: the
// set key into k.set and the entry key, led by the 8-byte set-ID slot,
// into k.entry. obstacles and parked are the sweep's own, so the key
// holds exactly what the sweep reads.
func (w *World) sweepKeyLocked(k *sweepKey, a *Arm, tr *kin.Trajectory, roll float64, held heldVolume, obstacles []obstacle, parked []parkedArm) {
	b := appendString(k.set[:0], a.ID)
	b = appendChain(b, tr.Chain)
	b = appendFloat(b, a.FingerDrop)
	b = appendFloat(b, a.FingerRadius)
	b = appendFloat(b, w.floorZ)
	b = binary.AppendUvarint(b, uint64(len(w.walls)))
	for _, p := range w.walls {
		b = appendFloat(appendVec(b, p.N), p.D)
	}
	// obstaclesLocked walks maps, so its order varies from call to call.
	// A clean verdict does not depend on that order (no obstacle is hit,
	// whichever comes first), so the key lists the obstacles sorted.
	recs, spans := k.recs[:0], k.spans[:0]
	for i := range obstacles {
		start := len(recs)
		recs = appendObstacle(recs, &obstacles[i])
		spans = append(spans, [2]int{start, len(recs)})
	}
	slices.SortFunc(spans, func(x, y [2]int) int {
		return bytes.Compare(recs[x[0]:x[1]], recs[y[0]:y[1]])
	})
	b = binary.AppendUvarint(b, uint64(len(spans)))
	for _, s := range spans {
		b = append(b, recs[s[0]:s[1]]...)
	}
	k.recs, k.spans = recs, spans
	b = binary.AppendUvarint(b, uint64(len(parked)))
	for _, p := range parked {
		b = appendString(b, p.arm.ID)
		b = binary.AppendUvarint(b, uint64(len(p.caps)))
		for _, lc := range p.caps {
			b = appendString(appendCapsule(b, lc.cap), lc.part)
		}
	}
	k.set = b

	var slot [8]byte
	e := append(k.entry[:0], slot[:]...)
	e = appendFloat(e, roll)
	e = appendString(e, held.part)
	e = appendFloat(appendFloat(e, held.radius), held.hang)
	e = appendFloats(e, tr.From)
	e = appendFloats(e, tr.To)
	k.entry = e
}

// appendChain appends everything of a chain a sweep reads: its name,
// base pose and every link's geometry and joint limits.
func appendChain(b []byte, c *kin.Chain) []byte {
	b = appendString(b, c.Name)
	for _, row := range c.Base.R.M {
		for _, v := range row {
			b = appendFloat(b, v)
		}
	}
	b = appendVec(b, c.Base.T)
	b = binary.AppendUvarint(b, uint64(len(c.Links)))
	for _, l := range c.Links {
		for _, v := range [...]float64{l.A, l.Alpha, l.D, l.Offset, l.Radius, l.MinAngle, l.MaxAngle} {
			b = appendFloat(b, v)
		}
	}
	return b
}

// appendObstacle appends one obstacle's identity and solid. Its bounds
// are a function of the solid and need no bytes of their own.
func appendObstacle(b []byte, ob *obstacle) []byte {
	b = appendString(b, ob.id)
	door := byte(0)
	if ob.isDoor {
		door = 1
	}
	b = append(b, door)
	b = appendVec(appendVec(b, ob.box.Min), ob.box.Max)
	if ob.rounded == nil {
		return append(b, 0)
	}
	return appendCapsule(append(b, 1), *ob.rounded)
}

func appendCapsule(b []byte, c geom.Capsule) []byte {
	return appendFloat(appendVec(appendVec(b, c.Seg.A), c.Seg.B), c.Radius)
}

func appendVec(b []byte, v geom.Vec3) []byte {
	return appendFloat(appendFloat(appendFloat(b, v.X), v.Y), v.Z)
}

func appendFloat(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

func appendFloats(b []byte, vs []float64) []byte {
	b = binary.AppendUvarint(b, uint64(len(vs)))
	for _, v := range vs {
		b = appendFloat(b, v)
	}
	return b
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}
