package trace

import (
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Defaults for Options fields left zero.
const (
	// DefaultSampleRate is the tail-sampling probability for traces that
	// did NOT end in an alert (alert traces are always retained).
	DefaultSampleRate = 0.10
	// DefaultMaxActive bounds concurrently open traces; the oldest is
	// dropped past the bound (a run trace leaks only if never finished).
	DefaultMaxActive = 256
	// DefaultMaxSpans bounds the spans buffered per trace. Past it the
	// buffer is a ring: the oldest spans are overwritten, mirroring the
	// flight recorder's black-box philosophy — a retained trace always
	// holds the *latest* window, which is the one that ends in the alert.
	DefaultMaxSpans = 2048
	// DefaultMaxRetained bounds the in-memory retained-trace ring served
	// by /traces; the exporter (if any) has already seen evicted traces.
	DefaultMaxRetained = 64
)

// Attr is one span attribute (string-valued, like the OTLP export).
type Attr struct {
	Key string `json:"key"`
	Val string `json:"val"`
}

// SpanData is one finished span.
type SpanData struct {
	Trace  TraceID
	Span   SpanID
	Parent SpanID // zero for root spans
	Name   string
	Start  time.Time
	End    time.Time
	Attrs  []Attr
	// Err is the error status message ("" = OK).
	Err string
	// Alert marks the span where a safety alert was raised; it forces
	// the whole trace's tail-sampling decision to "retain".
	Alert bool
}

// Context returns the span's context, for parenting children.
func (d *SpanData) Context() SpanContext {
	return SpanContext{Trace: d.Trace, Span: d.Span}
}

// TraceData is one finished, retained trace.
type TraceData struct {
	ID TraceID
	// Alert reports whether any span carried an alert mark.
	Alert bool
	// Dropped counts spans lost to the per-trace ring bound.
	Dropped int
	// Spans in start-time order.
	Spans []SpanData
}

// Exporter receives each retained trace exactly once, at the moment the
// tail-sampling decision keeps it.
type Exporter interface {
	ExportTrace(td *TraceData) error
}

// Options configures a Tracer.
type Options struct {
	// SampleRate is the tail-sampling probability for non-alert traces
	// (default DefaultSampleRate; <0 retains alert traces only).
	SampleRate float64
	// MaxActive, MaxSpans, MaxRetained override the bounds above.
	MaxActive   int
	MaxSpans    int
	MaxRetained int
	// Exporter, when set, receives every retained trace.
	Exporter Exporter
	// Seed drives span/trace ID generation and the sampling decision —
	// like the rest of the reproduction, tracing is deterministic.
	Seed int64
	// Obs publishes tracer telemetry (nil-safe).
	Obs *obs.Registry
}

// spanChunk is the allocation unit of a trace's span buffer. Spans
// fill fixed-size chunks, so publishing one never copies the spans
// before it (a growing slice would, under the trace's lock).
const spanChunk = 64

// chunkPool recycles span chunks. Once a trace closes, its spans have
// been copied out (retained) or discarded (sampled out or evicted), so
// its chunks can hold the next traces' spans: most traces are sampled
// out, and their spans would otherwise be garbage.
var chunkPool = sync.Pool{New: func() any { return new([spanChunk]SpanData) }}

// activeTrace is one open trace: a bounded span ring plus the alert
// flag. Its own mutex serializes publication into it, so traces opened
// by different interceptors never contend.
type activeTrace struct {
	mu      sync.Mutex
	closed  bool // finished or evicted: later spans are dropped
	chunks  []*[spanChunk]SpanData
	n       int // spans held, at most the tracer's maxSpans
	next    int // ring cursor once n == maxSpans
	dropped int
	alert   bool
}

// slot returns the storage for the span at ring index i.
func (at *activeTrace) slot(i int) *SpanData { return &at.chunks[i/spanChunk][i%spanChunk] }

// put stores sd, overwriting the oldest span once max are held.
func (at *activeTrace) put(sd *SpanData, max int) {
	if at.n < max {
		if at.n%spanChunk == 0 {
			at.chunks = append(at.chunks, chunkPool.Get().(*[spanChunk]SpanData))
		}
		*at.slot(at.n) = *sd
		at.n++
		return
	}
	*at.slot(at.next) = *sd
	at.next = (at.next + 1) % max
	at.dropped++
}

// close marks the trace closed, so later spans are dropped, and returns
// its chunks to the pool, cleared so they pin no span's strings.
// Callers hold at.mu and have copied out whatever they keep.
func (at *activeTrace) close() {
	at.closed = true
	for _, c := range at.chunks {
		clear(c[:])
		chunkPool.Put(c)
	}
	at.chunks = nil
}

// ordered copies out the held spans in insertion order (nil when none
// was published). Callers hold at.mu.
func (at *activeTrace) ordered() []SpanData {
	if at.n == 0 {
		return nil
	}
	spans := make([]SpanData, 0, at.n)
	// Unwrap the ring: the oldest held span sits at the cursor.
	for i := range at.n {
		spans = append(spans, *at.slot((at.next + i) % at.n))
	}
	return spans
}

// bindKey identifies a command in flight: the interceptor binds the
// command's root span under (device, seq) and the engine looks the
// binding up from inside the pipeline — causal context threads through
// without changing the Checker interface.
type bindKey struct {
	device string
	seq    int
}

// Tracer assigns IDs, buffers spans per trace, makes the tail-sampling
// retention decision at FinishTrace, and carries the (device, seq) →
// SpanContext binding registry. All methods are safe for concurrent use
// and nil-safe: a nil *Tracer (tracing disabled) no-ops everywhere and
// hands out nil *Spans, whose methods also no-op.
type Tracer struct {
	sampleRate  float64
	maxActive   int
	maxSpans    int
	maxRetained int
	exporter    Exporter

	// idState/rngState are splitmix64 streams: idState feeds trace/span
	// IDs, rngState the sampling decisions — both seeded, so a run's
	// trace tree and retention are reproducible.
	idState  atomic.Uint64
	rngState atomic.Uint64

	// mu guards the trace tables; span publication takes it only for
	// reading, to find its trace. bindMu guards the binding registry.
	mu       sync.RWMutex
	active   map[TraceID]*activeTrace
	order    []TraceID // active traces, oldest first
	retained []*TraceData
	bindMu   sync.Mutex
	bindings map[bindKey]SpanContext

	exportErr atomic.Value // error

	cStarted      *obs.Counter
	cRetained     *obs.Counter
	cSampledOut   *obs.Counter
	cSpansDropped *obs.Counter
	cExportErrors *obs.Counter
}

// NewTracer builds a tracer.
func NewTracer(o Options) *Tracer {
	t := &Tracer{
		sampleRate:  o.SampleRate,
		maxActive:   o.MaxActive,
		maxSpans:    o.MaxSpans,
		maxRetained: o.MaxRetained,
		exporter:    o.Exporter,
		active:      make(map[TraceID]*activeTrace),
		bindings:    make(map[bindKey]SpanContext),
	}
	if t.sampleRate == 0 {
		t.sampleRate = DefaultSampleRate
	}
	if t.maxActive <= 0 {
		t.maxActive = DefaultMaxActive
	}
	if t.maxSpans <= 0 {
		t.maxSpans = DefaultMaxSpans
	}
	if t.maxRetained <= 0 {
		t.maxRetained = DefaultMaxRetained
	}
	seed := uint64(o.Seed)
	if seed == 0 {
		seed = 1
	}
	t.idState.Store(seed * 0x2545F4914F6CDD1D)
	t.rngState.Store(seed ^ 0x9E3779B97F4A7C15)
	reg := o.Obs
	t.cStarted = reg.Counter(obs.CounterTracesStarted)
	t.cRetained = reg.Counter(obs.CounterTracesRetained)
	t.cSampledOut = reg.Counter(obs.CounterTracesSampledOut)
	t.cSpansDropped = reg.Counter(obs.CounterTraceSpansDropped)
	t.cExportErrors = reg.Counter(obs.CounterTraceExportErrors)
	return t
}

// next64 draws the next splitmix64 output from a seeded atomic stream.
func next64(state *atomic.Uint64) uint64 {
	x := state.Add(0x9E3779B97F4A7C15)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// newSpanID never returns the invalid zero ID.
func (t *Tracer) newSpanID() SpanID {
	var id SpanID
	for {
		v := next64(&t.idState)
		if v == 0 {
			continue
		}
		for i := 0; i < 8; i++ {
			id[i] = byte(v >> (8 * (7 - i)))
		}
		return id
	}
}

// StartTrace opens a fresh trace and returns its ID (zero when t is nil).
func (t *Tracer) StartTrace() TraceID {
	if t == nil {
		return TraceID{}
	}
	var id TraceID
	hi, lo := next64(&t.idState), next64(&t.idState)
	for i := 0; i < 8; i++ {
		id[i] = byte(hi >> (8 * (7 - i)))
		id[8+i] = byte(lo >> (8 * (7 - i)))
	}
	if id.IsZero() {
		id[15] = 1
	}
	t.adopt(id)
	return id
}

// AdoptTrace opens a trace under a remote caller's ID (e.g. parsed from
// an inbound traceparent header), so local spans join the caller's
// trace. A zero ID or nil tracer no-ops.
func (t *Tracer) AdoptTrace(id TraceID) {
	if t == nil || id.IsZero() {
		return
	}
	t.adopt(id)
}

func (t *Tracer) adopt(id TraceID) {
	t.mu.Lock()
	if _, ok := t.active[id]; !ok {
		t.active[id] = &activeTrace{}
		t.order = append(t.order, id)
		for len(t.order) > t.maxActive {
			oldest := t.order[0]
			t.order = t.order[1:]
			if at, ok := t.active[oldest]; ok {
				delete(t.active, oldest)
				at.mu.Lock()
				at.close()
				t.cSpansDropped.Add(int64(at.n + at.dropped))
				at.mu.Unlock()
			}
		}
	}
	t.mu.Unlock()
	t.cStarted.Inc()
}

// Span is an open span. Starting is lock-free (ID generation plus a
// clock read); the span is published to its trace's buffer at End. A
// nil *Span (tracing disabled, invalid parent) no-ops on every method.
type Span struct {
	t    *Tracer
	data SpanData
}

// StartRoot opens a root span (no parent) in the given trace.
func (t *Tracer) StartRoot(trace TraceID, name string) *Span {
	return t.startRootAt(trace, name, time.Time{})
}

// StartSpan opens a child span under parent; an invalid parent or nil
// tracer returns nil.
func (t *Tracer) StartSpan(parent SpanContext, name string) *Span {
	return t.StartSpanAt(parent, name, time.Time{})
}

// StartSpanAt is StartSpan with an explicit start time, so pipeline
// stages can reuse clock reads they already make for their latency
// histograms instead of paying extra time.Now() calls.
func (t *Tracer) StartSpanAt(parent SpanContext, name string, at time.Time) *Span {
	if t == nil || !parent.Valid() {
		return nil
	}
	if at.IsZero() {
		at = time.Now()
	}
	return &Span{t: t, data: SpanData{
		Trace:  parent.Trace,
		Span:   t.newSpanID(),
		Parent: parent.Span,
		Name:   name,
		Start:  at,
	}}
}

func (t *Tracer) startRootAt(trace TraceID, name string, at time.Time) *Span {
	if t == nil || trace.IsZero() {
		return nil
	}
	if at.IsZero() {
		at = time.Now()
	}
	return &Span{t: t, data: SpanData{
		Trace: trace,
		Span:  t.newSpanID(),
		Name:  name,
		Start: at,
	}}
}

// Context returns the span's context for parenting children (zero when
// s is nil).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{Trace: s.data.Trace, Span: s.data.Span}
}

// SetAttr sets a string attribute, replacing an earlier value for the
// same key.
func (s *Span) SetAttr(key, val string) {
	if s == nil {
		return
	}
	for i := range s.data.Attrs {
		if s.data.Attrs[i].Key == key {
			s.data.Attrs[i].Val = val
			return
		}
	}
	if s.data.Attrs == nil {
		// Room for an interception root's attributes in one allocation.
		s.data.Attrs = make([]Attr, 0, 4)
	}
	s.data.Attrs = append(s.data.Attrs, Attr{Key: key, Val: val})
}

// SetIntAttr sets an integer attribute.
func (s *Span) SetIntAttr(key string, val int) {
	s.SetAttr(key, strconv.Itoa(val))
}

// SetError marks the span's status as error with the given message.
func (s *Span) SetError(msg string) {
	if s == nil {
		return
	}
	s.data.Err = msg
}

// MarkAlert records that a safety alert of the given kind was raised in
// this span: the span gets error status plus an "alert" attribute, and
// the enclosing trace is pinned for retention regardless of the
// sampling rate.
func (s *Span) MarkAlert(kind, msg string) {
	if s == nil {
		return
	}
	s.data.Alert = true
	s.data.Err = msg
	s.SetAttr("alert", kind)
}

// End closes the span now and publishes it to its trace.
func (s *Span) End() { s.EndAt(time.Time{}) }

// EndAt closes the span at an explicit time (see StartSpanAt).
func (s *Span) EndAt(at time.Time) {
	if s == nil {
		return
	}
	if at.IsZero() {
		at = time.Now()
	}
	s.data.End = at
	s.t.append(&s.data)
}

// Emit publishes a finished span over [start, end] under parent; errMsg
// "" is OK status. It is StartSpanAt plus EndAt for callers that already
// hold both timestamps, without allocating. An invalid parent or nil
// tracer no-ops.
func (t *Tracer) Emit(parent SpanContext, name string, start, end time.Time, errMsg string) {
	if t == nil || !parent.Valid() {
		return
	}
	t.append(&SpanData{
		Trace:  parent.Trace,
		Span:   t.newSpanID(),
		Parent: parent.Span,
		Name:   name,
		Start:  start,
		End:    end,
		Err:    errMsg,
	})
}

// lookup returns the open trace id, or nil.
func (t *Tracer) lookup(id TraceID) *activeTrace {
	t.mu.RLock()
	at := t.active[id]
	t.mu.RUnlock()
	return at
}

// append publishes a finished span into its trace's bounded ring.
func (t *Tracer) append(sd *SpanData) {
	at := t.lookup(sd.Trace)
	if at != nil {
		at.mu.Lock()
		if !at.closed {
			if sd.Alert {
				at.alert = true
			}
			at.put(sd, t.maxSpans)
			at.mu.Unlock()
			return
		}
		at.mu.Unlock()
	}
	t.cSpansDropped.Inc() // trace already finished or evicted
}

// MarkAlert pins a whole trace for retention without going through a
// span — for alert paths that have no span in hand.
func (t *Tracer) MarkAlert(id TraceID) {
	if t == nil || id.IsZero() {
		return
	}
	if at := t.lookup(id); at != nil {
		at.mu.Lock()
		at.alert = true
		at.mu.Unlock()
	}
}

// Bind registers the root span context for a command in flight, keyed
// by (device, seq). The engine's pipeline stages look it up with Bound.
func (t *Tracer) Bind(device string, seq int, ctx SpanContext) {
	if t == nil || !ctx.Valid() {
		return
	}
	t.bindMu.Lock()
	t.bindings[bindKey{device, seq}] = ctx
	t.bindMu.Unlock()
}

// Unbind removes a command's binding.
func (t *Tracer) Unbind(device string, seq int) {
	if t == nil {
		return
	}
	t.bindMu.Lock()
	delete(t.bindings, bindKey{device, seq})
	t.bindMu.Unlock()
}

// Bound returns the span context bound for a command (zero when none).
func (t *Tracer) Bound(device string, seq int) SpanContext {
	if t == nil {
		return SpanContext{}
	}
	t.bindMu.Lock()
	ctx := t.bindings[bindKey{device, seq}]
	t.bindMu.Unlock()
	return ctx
}

// FinishTrace closes a trace and makes the tail-sampling decision:
// alert traces are always retained; the rest pass a seeded coin flip at
// the sampling rate. Retained traces join the in-memory ring (served by
// /traces) and are handed to the exporter. Reports whether the trace
// was retained.
func (t *Tracer) FinishTrace(id TraceID) bool {
	if t == nil || id.IsZero() {
		return false
	}
	t.mu.Lock()
	at, ok := t.active[id]
	if !ok {
		t.mu.Unlock()
		return false
	}
	delete(t.active, id)
	for i, oid := range t.order {
		if oid == id {
			t.order = append(t.order[:i], t.order[i+1:]...)
			break
		}
	}
	// The decision and the close are one step under at.mu: a span
	// published before it counts, a later one finds the trace closed and
	// is dropped.
	at.mu.Lock()
	td := &TraceData{ID: id, Alert: at.alert, Dropped: at.dropped}
	retain := td.Alert || t.sample()
	if retain {
		td.Spans = at.ordered()
	}
	at.close()
	at.mu.Unlock()
	if !retain {
		t.mu.Unlock()
		t.cSampledOut.Inc()
		return false
	}
	sort.SliceStable(td.Spans, func(i, j int) bool { return td.Spans[i].Start.Before(td.Spans[j].Start) })
	t.retained = append(t.retained, td)
	for len(t.retained) > t.maxRetained {
		t.retained = t.retained[1:]
	}
	t.mu.Unlock()
	t.cRetained.Inc()
	t.cSpansDropped.Add(int64(td.Dropped))
	if t.exporter != nil {
		if err := t.exporter.ExportTrace(td); err != nil {
			t.exportErr.Store(err)
			t.cExportErrors.Inc()
		}
	}
	return true
}

// sample draws the tail-sampling coin flip (callers hold t.mu or accept
// the raciness of an independent RNG stream; the stream is atomic).
func (t *Tracer) sample() bool {
	if t.sampleRate <= 0 {
		return false
	}
	if t.sampleRate >= 1 {
		return true
	}
	return float64(next64(&t.rngState)>>11)/(1<<53) < t.sampleRate
}

// Retained returns the retained traces, oldest first. TraceData values
// are immutable once finished; the slice is a copy.
func (t *Tracer) Retained() []*TraceData {
	if t == nil {
		return nil
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	return append([]*TraceData(nil), t.retained...)
}

// Find returns the retained trace with the given ID, or nil.
func (t *Tracer) Find(id TraceID) *TraceData {
	if t == nil {
		return nil
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, td := range t.retained {
		if td.ID == id {
			return td
		}
	}
	return nil
}

// ActiveCount reports how many traces are currently open.
func (t *Tracer) ActiveCount() int {
	if t == nil {
		return 0
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.active)
}

// ExportErr returns the most recent exporter error (nil when exports
// are healthy or absent) — the /healthz exporter component reads it.
func (t *Tracer) ExportErr() error {
	if t == nil {
		return nil
	}
	if err, ok := t.exportErr.Load().(error); ok {
		return err
	}
	return nil
}
