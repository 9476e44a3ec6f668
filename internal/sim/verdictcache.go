package sim

import (
	"container/list"
	"math"
	"strconv"
	"sync"

	"repro/internal/action"
	"repro/internal/kin"
	"repro/internal/obs"
)

// verdict is one memoized trajectory check outcome: an empty reason is a
// pass, anything else the Violation reason. spec marks verdicts computed
// by a speculative lookahead that no on-path check has consumed yet;
// corr is that speculation's flight-recorder correlation ID, kept so the
// consuming check's record can name the speculative span that produced
// its verdict.
type outcome struct {
	reason string
	spec   bool
	corr   string
}

// verdictEntry is one LRU slot.
type verdictEntry struct {
	key string
	v   outcome
}

// DefaultVerdictCacheCapacity bounds the verdict cache. Verdicts are a
// few dozen bytes, but every deck-epoch bump orphans a whole generation
// of keys, so the bound is what actually reclaims them.
const DefaultVerdictCacheCapacity = 4096

// verdictCache is a bounded LRU of trajectory verdicts. Keys embed the
// deck epoch (see Simulator.verdictKey): entries cached under an earlier
// epoch can never be looked up again, which is how stale verdicts are
// structurally unservable rather than merely flagged. Safe for
// concurrent use.
type verdictCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List
	items map[string]*list.Element
}

func newVerdictCache(capacity int) *verdictCache {
	if capacity <= 0 {
		capacity = DefaultVerdictCacheCapacity
	}
	return &verdictCache{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[string]*list.Element),
	}
}

// get returns the cached verdict for key. When consume is true a
// speculative verdict is claimed: its spec mark is cleared and reported
// exactly once, so the speculation-hit gauge counts distinct pre-checks
// taken off the critical path.
func (c *verdictCache) get(key string, consume bool) (outcome, bool, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return outcome{}, false, false
	}
	c.ll.MoveToFront(el)
	e := el.Value.(*verdictEntry)
	wasSpec := e.v.spec
	if consume && wasSpec {
		e.v.spec = false
	}
	return e.v, true, wasSpec
}

// put stores a verdict, evicting the LRU tail past capacity. An existing
// entry is left untouched (first write wins; both writers computed the
// same verdict for the same key).
func (c *verdictCache) put(key string, v outcome, evictions *obs.Counter) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.items[key]; ok {
		return
	}
	c.items[key] = c.ll.PushFront(&verdictEntry{key: key, v: v})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*verdictEntry).key)
		evictions.Inc()
	}
}

// len returns the number of cached verdicts.
func (c *verdictCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// verdictKey identifies everything a trajectory check reads: the deck
// epoch (standing in for every deck-relevant model variable — doors,
// arm-inside flags, held objects), the command fields the sweep consumes
// (device, action, target, inside-device), and the quantized start
// configuration. Command sequence numbers, durations, and action values
// are deliberately absent: they cannot change the swept volume.
func (s *Simulator) verdictKey(from []float64, cmd action.Command, epoch uint64) string {
	b := make([]byte, 0, 128)
	b = strconv.AppendUint(b, epoch, 10)
	b = append(b, '|')
	b = append(b, cmd.Device...)
	b = append(b, '|')
	b = append(b, cmd.Action...)
	b = append(b, '|')
	b = append(b, cmd.TargetName...)
	b = append(b, '|')
	b = append(b, cmd.InsideDevice...)
	b = append(b, '|')
	b = appendQ(b, cmd.Target.X, kin.TargetQuantum)
	b = appendQ(b, cmd.Target.Y, kin.TargetQuantum)
	b = appendQ(b, cmd.Target.Z, kin.TargetQuantum)
	b = append(b, '|')
	for _, q := range from {
		b = appendQ(b, q, kin.JointQuantum)
	}
	return string(b)
}

// appendQ snaps v to the plan cache's quantization grid and appends it.
func appendQ(b []byte, v, quantum float64) []byte {
	b = append(b, ':')
	return strconv.AppendInt(b, int64(math.Round(v/quantum)), 10)
}
