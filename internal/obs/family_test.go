package obs

import (
	"strings"
	"testing"
	"time"
)

func TestFamilyBasics(t *testing.T) {
	r := NewRegistry("fam")
	evals := r.CounterFamily(FamilyRuleEvals, LabelRule)
	if evals.Name() != FamilyRuleEvals || evals.Key() != LabelRule {
		t.Fatalf("family identity: name=%q key=%q", evals.Name(), evals.Key())
	}
	evals.Counter("general-1").Inc()
	evals.Counter("general-1").Inc()
	evals.Counter("hein-2").Inc()

	// Kind mismatch: asking a counter family for a gauge or histogram
	// yields nil, and the nil instrument absorbs writes silently.
	if g := evals.Gauge("general-1"); g != nil {
		t.Fatal("counter family handed out a gauge")
	}
	evals.Gauge("general-1").Set(99) // must not panic
	if h := evals.Histogram("general-1"); h != nil {
		t.Fatal("counter family handed out a histogram")
	}
	evals.Histogram("general-1").Observe(time.Second) // must not panic

	// Same name, different requested shape: the first creation wins.
	if again := r.GaugeFamily(FamilyRuleEvals, "other"); again != evals {
		t.Fatal("re-lookup under a different shape built a second family")
	}

	snap := r.Snapshot()
	fs, ok := snap.Family(FamilyRuleEvals)
	if !ok {
		t.Fatal("family missing from snapshot")
	}
	if fs.Kind != KindCounter || fs.Key != LabelRule {
		t.Fatalf("snapshot shape: kind=%q key=%q", fs.Kind, fs.Key)
	}
	if got := fs.Counter("general-1"); got != 2 {
		t.Fatalf("general-1 = %d, want 2", got)
	}
	if got := fs.Counter("hein-2"); got != 1 {
		t.Fatalf("hein-2 = %d, want 1", got)
	}
	if got := fs.Counter("absent"); got != 0 {
		t.Fatalf("absent label = %d, want 0", got)
	}
	// Label values sort within the snapshot.
	if len(fs.Counters) != 2 || fs.Counters[0].Name != "general-1" || fs.Counters[1].Name != "hein-2" {
		t.Fatalf("snapshot counters unsorted: %+v", fs.Counters)
	}
}

func TestFamilyNilSafety(t *testing.T) {
	var f *Family
	if f.Name() != "" || f.Key() != "" {
		t.Fatal("nil family identity not empty")
	}
	f.Counter("x").Inc()
	f.Gauge("x").Set(1)
	f.Histogram("x").Observe(time.Millisecond)
	f.Reset()

	var r *Registry
	r.CounterFamily("a", "k").Counter("v").Inc()
	r.HistogramFamily("b", "k").Histogram("v").Observe(time.Second)
}

func TestFamilyReset(t *testing.T) {
	r := NewRegistry("fam")
	fires := r.CounterFamily(FamilyRuleFires, LabelRule)
	lat := r.HistogramFamily(FamilyRuleEval, LabelRule)
	c := fires.Counter("r1")
	h := lat.Histogram("r1")
	c.Inc()
	h.ObserveExemplar(3*time.Microsecond, [16]byte{1})

	fires.Reset()
	lat.Reset()
	if c.Value() != 0 {
		t.Fatalf("counter survived reset: %d", c.Value())
	}
	if h.Count() != 0 {
		t.Fatalf("histogram survived reset: %d", h.Count())
	}
	if snap := h.snapshot("r1"); len(snap.Exemplars) != 0 {
		t.Fatalf("exemplars survived reset: %+v", snap.Exemplars)
	}
	// Cached pointers stay live after Reset.
	c.Inc()
	if fires.Counter("r1").Value() != 1 {
		t.Fatal("cached counter pointer detached by reset")
	}
}

func TestHistogramExemplars(t *testing.T) {
	h := NewHistogram()
	// 3µs lands in the ≤5µs bucket (dense index 2); 2s lands at index 19.
	h.ObserveExemplar(3*time.Microsecond, [16]byte{0xaa, 0xa1, 0x11})
	h.ObserveExemplar(2*time.Second, [16]byte{0xbb, 0xb2, 0x22})
	// A later traced observation in the same bucket replaces the first.
	h.ObserveExemplar(4*time.Microsecond, [16]byte{0xcc, 0xc3, 0x33})
	// The zero trace ID observes without publishing an exemplar.
	h.ObserveExemplar(10*time.Hour, [16]byte{})

	if h.Count() != 4 {
		t.Fatalf("count = %d, want 4", h.Count())
	}
	s := h.snapshot("x")
	if len(s.Exemplars) != 2 {
		t.Fatalf("exemplars = %+v, want 2 buckets", s.Exemplars)
	}
	byBucket := map[int]ExemplarSnapshot{}
	for _, ex := range s.Exemplars {
		byBucket[ex.Bucket] = ex
	}
	// Snapshots render the raw ID as 32 lowercase hex chars.
	if ex := byBucket[2]; ex.TraceID != "ccc333"+strings.Repeat("0", 26) || ex.ValueNS != 4000 {
		t.Fatalf("µs bucket exemplar = %+v, want ccc333…/4000ns", ex)
	}
	if ex := byBucket[19]; ex.TraceID != "bbb222"+strings.Repeat("0", 26) || ex.ValueNS != (2*time.Second).Nanoseconds() {
		t.Fatalf("2s bucket exemplar = %+v", ex)
	}
	// The overflow observation must not have minted an exemplar (its
	// trace ID was empty), and dense indices must align with the ladder.
	if _, ok := byBucket[len(BucketBoundsNS())]; ok {
		t.Fatal("untraced overflow observation published an exemplar")
	}

	var nilH *Histogram
	nilH.ObserveExemplar(time.Second, [16]byte{9}) // must not panic
}

// ObserveExemplar runs on every stage of every traced command, so it
// must not allocate: the ID is stored in the bucket's slot in place.
func TestObserveExemplarAllocs(t *testing.T) {
	h := NewHistogram()
	id := [16]byte{0x0a, 0xf7, 0x65, 0x19}
	if n := testing.AllocsPerRun(1000, func() {
		h.ObserveExemplar(3*time.Microsecond, id)
	}); n != 0 {
		t.Fatalf("ObserveExemplar allocates %.1f times per call, want 0", n)
	}
}
