package obs

import (
	"encoding/hex"
	"sync"
	"sync/atomic"
	"time"
)

// bucketBounds are the histogram's fixed upper bounds. Checks are
// µs-scale without the simulator and ms-scale with it (seconds with the
// GUI), so the buckets run 1µs–5s on a 1/2/5 ladder; the last bucket is
// unbounded.
var bucketBounds = [...]time.Duration{
	1 * time.Microsecond,
	2 * time.Microsecond,
	5 * time.Microsecond,
	10 * time.Microsecond,
	20 * time.Microsecond,
	50 * time.Microsecond,
	100 * time.Microsecond,
	200 * time.Microsecond,
	500 * time.Microsecond,
	1 * time.Millisecond,
	2 * time.Millisecond,
	5 * time.Millisecond,
	10 * time.Millisecond,
	20 * time.Millisecond,
	50 * time.Millisecond,
	100 * time.Millisecond,
	200 * time.Millisecond,
	500 * time.Millisecond,
	1 * time.Second,
	2 * time.Second,
	5 * time.Second,
}

// numBuckets includes the overflow bucket.
const numBuckets = len(bucketBounds) + 1

// Histogram is a fixed-bucket latency histogram. Observations are four
// atomic operations (bucket, count, sum, max) — no locks, safe for
// concurrent use, cheap enough for per-stage spans on every command.
type Histogram struct {
	buckets [numBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
	max     atomic.Int64 // nanoseconds
	// exemplars holds the most recent trace-carrying observation per
	// bucket — the metric→trace links the OpenMetrics exposition emits.
	// Each slot stores the raw 16-byte trace ID in place, so publishing
	// one allocates nothing; hex is rendered only at snapshot time.
	exemplars [numBuckets]exemplarSlot
}

// exemplarSlot is one bucket's most recent traced observation (a zero
// trace ID marks an empty slot). The ID and value are published
// together under mu, so a snapshot never pairs one observation's ID
// with another's value.
type exemplarSlot struct {
	mu      sync.Mutex
	traceID [16]byte
	valueNS int64
}

// NewHistogram builds an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// bucketIndex maps a duration to its bucket. The ladder is short enough
// that a linear scan beats binary search in practice (and branch-predicts
// well: most observations land in the first few µs buckets).
func bucketIndex(d time.Duration) int {
	for i, b := range bucketBounds {
		if d <= b {
			return i
		}
	}
	return numBuckets - 1
}

// Observe records one duration. Nil-safe.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	ns := d.Nanoseconds()
	h.buckets[bucketIndex(d)].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
	for {
		cur := h.max.Load()
		if ns <= cur || h.max.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// ObserveExemplar records one duration and, when a trace ID is known,
// publishes it as the observation's bucket exemplar — a latency spike
// on /metrics/prom then links to the causal trace that produced it.
// The ID is the raw 128-bit trace ID (an otrace.TraceID converts
// implicitly); with the all-zero ID it is exactly Observe. It never
// allocates. Nil-safe.
func (h *Histogram) ObserveExemplar(d time.Duration, traceID [16]byte) {
	h.Observe(d)
	if h == nil || traceID == ([16]byte{}) {
		return
	}
	if d < 0 {
		d = 0
	}
	slot := &h.exemplars[bucketIndex(d)]
	slot.mu.Lock()
	slot.traceID, slot.valueNS = traceID, d.Nanoseconds()
	slot.mu.Unlock()
}

// Count returns how many observations were recorded. Nil-safe (0).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the total of all observations. Nil-safe (0).
func (h *Histogram) Sum() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.sum.Load())
}

// Mean returns the average observation. Nil-safe (0).
func (h *Histogram) Mean() time.Duration {
	if h == nil {
		return 0
	}
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / n)
}

// Max returns the largest observation. Nil-safe (0).
func (h *Histogram) Max() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.max.Load())
}

// Quantile estimates the q-th quantile (0 < q ≤ 1) by linear
// interpolation within the containing bucket; the overflow bucket reports
// the observed max. Nil-safe (0).
func (h *Histogram) Quantile(q float64) time.Duration {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q*float64(total) + 0.5)
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := 0; i < numBuckets; i++ {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		if cum+n >= rank {
			if i == numBuckets-1 {
				return h.Max()
			}
			lo := time.Duration(0)
			if i > 0 {
				lo = bucketBounds[i-1]
			}
			hi := bucketBounds[i]
			frac := float64(rank-cum) / float64(n)
			est := lo + time.Duration(frac*float64(hi-lo))
			if m := h.Max(); est > m {
				est = m
			}
			return est
		}
		cum += n
	}
	return h.Max()
}

// P50 is the median estimate.
func (h *Histogram) P50() time.Duration { return h.Quantile(0.50) }

// P95 is the 95th-percentile estimate.
func (h *Histogram) P95() time.Duration { return h.Quantile(0.95) }

// P99 is the 99th-percentile estimate.
func (h *Histogram) P99() time.Duration { return h.Quantile(0.99) }

// Reset zeroes the histogram. Concurrent observers may land on either
// side of the reset; that is acceptable between evaluation runs. Nil-safe.
func (h *Histogram) Reset() {
	if h == nil {
		return
	}
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
	for i := range h.exemplars {
		slot := &h.exemplars[i]
		slot.mu.Lock()
		slot.traceID = [16]byte{}
		slot.mu.Unlock()
	}
	h.count.Store(0)
	h.sum.Store(0)
	h.max.Store(0)
}

// BucketBoundsNS returns the fixed bucket ladder's upper bounds in
// nanoseconds, excluding the overflow (+Inf) bucket. The slice is a
// fresh copy; exposition layers align it with CumulativeCounts.
func BucketBoundsNS() []int64 {
	out := make([]int64, len(bucketBounds))
	for i, b := range bucketBounds {
		out[i] = b.Nanoseconds()
	}
	return out
}

// CumulativeCounts returns the cumulative observation count at every
// fixed bucket bound, plus a final entry for the overflow (+Inf) bucket
// — len(BucketBoundsNS())+1 entries, the last equal to Count(). Unlike
// the snapshot's sparse Buckets, every bucket is present (zeros
// included), which is what a Prometheus _bucket series requires.
// Nil-safe (nil).
func (h *Histogram) CumulativeCounts() []int64 {
	if h == nil {
		return nil
	}
	out := make([]int64, numBuckets)
	var cum int64
	for i := 0; i < numBuckets; i++ {
		cum += h.buckets[i].Load()
		out[i] = cum
	}
	return out
}

// HistogramBucket is one bucket of a snapshot: observations ≤ UpperNS
// (cumulative, Prometheus-style).
type HistogramBucket struct {
	UpperNS    int64 `json:"upper_ns"` // 0 marks the overflow (+Inf) bucket
	Cumulative int64 `json:"cumulative"`
}

// HistogramSnapshot summarises a histogram for sinks and introspection.
type HistogramSnapshot struct {
	Name    string            `json:"name"`
	Count   int64             `json:"count"`
	SumNS   int64             `json:"sum_ns"`
	MeanNS  int64             `json:"mean_ns"`
	P50NS   int64             `json:"p50_ns"`
	P95NS   int64             `json:"p95_ns"`
	P99NS   int64             `json:"p99_ns"`
	MaxNS   int64             `json:"max_ns"`
	Buckets []HistogramBucket `json:"buckets,omitempty"`
	// CumCounts is the dense cumulative series over the full fixed
	// ladder (see Histogram.CumulativeCounts); index i pairs with
	// BucketBoundsNS()[i], and the final entry is the +Inf bucket.
	// Present only when the histogram has observations.
	CumCounts []int64 `json:"cum_counts,omitempty"`
	// Exemplars are the per-bucket metric→trace links: Bucket indexes
	// the dense ladder (CumCounts/BucketBoundsNS positions, the last
	// being +Inf). Only buckets that saw a traced observation appear.
	Exemplars []ExemplarSnapshot `json:"exemplars,omitempty"`
}

// ExemplarSnapshot is one bucket's most recent traced observation.
// TraceID is the 32-char lowercase hex form, rendered from the stored
// raw ID when the snapshot is taken.
type ExemplarSnapshot struct {
	Bucket  int    `json:"bucket"`
	TraceID string `json:"trace_id"`
	ValueNS int64  `json:"value_ns"`
}

// snapshot captures the histogram under a name.
func (h *Histogram) snapshot(name string) HistogramSnapshot {
	s := HistogramSnapshot{
		Name:   name,
		Count:  h.Count(),
		SumNS:  h.Sum().Nanoseconds(),
		MeanNS: h.Mean().Nanoseconds(),
		P50NS:  h.P50().Nanoseconds(),
		P95NS:  h.P95().Nanoseconds(),
		P99NS:  h.P99().Nanoseconds(),
		MaxNS:  h.Max().Nanoseconds(),
	}
	var cum int64
	for i := 0; i < numBuckets; i++ {
		n := h.buckets[i].Load()
		cum += n
		if n == 0 {
			continue // only emit buckets that gained observations
		}
		upper := int64(0)
		if i < len(bucketBounds) {
			upper = bucketBounds[i].Nanoseconds()
		}
		s.Buckets = append(s.Buckets, HistogramBucket{UpperNS: upper, Cumulative: cum})
	}
	if s.Count > 0 {
		s.CumCounts = h.CumulativeCounts()
	}
	for i := 0; i < numBuckets; i++ {
		slot := &h.exemplars[i]
		slot.mu.Lock()
		id, v := slot.traceID, slot.valueNS
		slot.mu.Unlock()
		if id != ([16]byte{}) {
			s.Exemplars = append(s.Exemplars, ExemplarSnapshot{Bucket: i, TraceID: hex.EncodeToString(id[:]), ValueNS: v})
		}
	}
	return s
}
