package trace

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

type httpResp struct {
	status int
	header http.Header
	body   string
}

func httpGet(t *testing.T, url string) httpResp {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	return httpResp{status: resp.StatusCode, header: resp.Header, body: string(b)}
}

func TestTraceParentRoundTrip(t *testing.T) {
	tr := NewTracer(Options{Seed: 7})
	id := tr.StartTrace()
	root := tr.StartRoot(id, "intercept")
	ctx := root.Context()

	hdr := ctx.TraceParent()
	if !strings.HasPrefix(hdr, "00-") || !strings.HasSuffix(hdr, "-01") {
		t.Fatalf("traceparent %q not version-00/sampled", hdr)
	}
	if len(hdr) != 2+1+32+1+16+1+2 {
		t.Fatalf("traceparent %q has wrong length %d", hdr, len(hdr))
	}
	back, err := ParseTraceParent(hdr)
	if err != nil {
		t.Fatal(err)
	}
	if back != ctx {
		t.Fatalf("round trip %+v != %+v", back, ctx)
	}
	// Forward compatibility: a future version with trailing fields parses.
	if _, err := ParseTraceParent("01-" + id.String() + "-" + ctx.Span.String() + "-01-extra"); err != nil {
		t.Errorf("future version rejected: %v", err)
	}
	for _, bad := range []string{
		"",
		"00-abc-def-01",
		"ff-" + id.String() + "-" + ctx.Span.String() + "-01",             // invalid version
		"00-" + strings.Repeat("0", 32) + "-" + ctx.Span.String() + "-01", // zero trace
		"00-" + id.String() + "-" + strings.Repeat("0", 16) + "-01",       // zero span
		"00-" + id.String() + "-" + ctx.Span.String(),                     // missing flags
		"00-" + strings.Repeat("g", 32) + "-" + ctx.Span.String() + "-01", // non-hex
	} {
		if _, err := ParseTraceParent(bad); err == nil {
			t.Errorf("ParseTraceParent(%q) accepted", bad)
		}
	}
	if (SpanContext{}).TraceParent() != "" {
		t.Error("invalid context renders a traceparent")
	}
}

func TestTailSamplingAlertPinned(t *testing.T) {
	reg := obs.NewRegistry("tail-test")
	tr := NewTracer(Options{SampleRate: -1, Seed: 3, Obs: reg}) // alert-only retention
	quiet := tr.StartTrace()
	s := tr.StartRoot(quiet, "intercept")
	s.End()
	if tr.FinishTrace(quiet) {
		t.Fatal("non-alert trace retained at rate -1")
	}
	loud := tr.StartTrace()
	s = tr.StartRoot(loud, "intercept")
	child := tr.StartSpan(s.Context(), "before.validate")
	child.MarkAlert("invalid_command", "value out of range")
	child.End()
	s.End()
	if !tr.FinishTrace(loud) {
		t.Fatal("alert trace dropped")
	}
	td := tr.Find(loud)
	if td == nil || !td.Alert {
		t.Fatalf("retained alert trace not findable/flagged: %+v", td)
	}
	if tr.Find(quiet) != nil {
		t.Fatal("sampled-out trace still findable")
	}
	snap := reg.Snapshot()
	if got := snap.Counter(obs.CounterTracesStarted); got != 2 {
		t.Errorf("traces started = %d, want 2", got)
	}
	if got := snap.Counter(obs.CounterTracesRetained); got != 1 {
		t.Errorf("traces retained = %d, want 1", got)
	}
	if got := snap.Counter(obs.CounterTracesSampledOut); got != 1 {
		t.Errorf("traces sampled out = %d, want 1", got)
	}
}

func TestTailSamplingDeterministic(t *testing.T) {
	count := func() int {
		tr := NewTracer(Options{SampleRate: 0.5, Seed: 11})
		kept := 0
		for i := 0; i < 200; i++ {
			id := tr.StartTrace()
			s := tr.StartRoot(id, "intercept")
			s.End()
			if tr.FinishTrace(id) {
				kept++
			}
		}
		return kept
	}
	a, b := count(), count()
	if a != b {
		t.Fatalf("same seed, different retention: %d vs %d", a, b)
	}
	if a < 60 || a > 140 {
		t.Fatalf("rate-0.5 retention of 200 traces = %d, implausible", a)
	}
}

func TestSpanRingBound(t *testing.T) {
	reg := obs.NewRegistry("ring-test")
	tr := NewTracer(Options{SampleRate: 1, MaxSpans: 8, Seed: 5, Obs: reg})
	id := tr.StartTrace()
	root := tr.StartRoot(id, "intercept")
	for i := 0; i < 20; i++ {
		c := tr.StartSpan(root.Context(), fmt.Sprintf("span%02d", i))
		c.End()
	}
	root.End()
	if !tr.FinishTrace(id) {
		t.Fatal("trace dropped at rate 1")
	}
	td := tr.Find(id)
	if len(td.Spans) != 8 {
		t.Fatalf("%d spans survive a MaxSpans=8 ring, want 8", len(td.Spans))
	}
	if td.Dropped != 13 { // root + 20 children - 8 kept
		t.Fatalf("dropped = %d, want 13", td.Dropped)
	}
	// The ring keeps the latest window — the spans nearest the trace's
	// end, which is where the alert evidence lives.
	last := td.Spans[len(td.Spans)-1]
	if last.Name != "intercept" && last.Name != "span19" {
		t.Fatalf("latest span %q is not from the tail of the run", last.Name)
	}
	if got := reg.Snapshot().Counter(obs.CounterTraceSpansDropped); got != 13 {
		t.Errorf("spans dropped counter = %d, want 13", got)
	}
	// A span ending after its trace finished is dropped, not resurrected.
	orphan := tr.StartSpan(SpanContext{Trace: id, Span: root.data.Span}, "late")
	orphan.End()
	if got := reg.Snapshot().Counter(obs.CounterTraceSpansDropped); got != 14 {
		t.Errorf("late span not counted dropped: %d", got)
	}
}

func TestRetainedRingAndActiveBound(t *testing.T) {
	tr := NewTracer(Options{SampleRate: 1, MaxRetained: 3, MaxActive: 4, Seed: 9})
	var ids []TraceID
	for i := 0; i < 6; i++ {
		id := tr.StartTrace()
		s := tr.StartRoot(id, "intercept")
		s.End()
		tr.FinishTrace(id)
		ids = append(ids, id)
	}
	if got := len(tr.Retained()); got != 3 {
		t.Fatalf("retained ring holds %d, want 3", got)
	}
	if tr.Find(ids[0]) != nil || tr.Find(ids[5]) == nil {
		t.Fatal("retained ring did not evict oldest-first")
	}
	// Active bound: open traces past MaxActive evict the oldest.
	var open []TraceID
	for i := 0; i < 6; i++ {
		open = append(open, tr.StartTrace())
	}
	if got := tr.ActiveCount(); got != 4 {
		t.Fatalf("active count %d, want MaxActive=4", got)
	}
	if tr.FinishTrace(open[0]) {
		t.Fatal("evicted trace still finishable")
	}
}

func TestBindings(t *testing.T) {
	tr := NewTracer(Options{Seed: 2})
	id := tr.StartTrace()
	root := tr.StartRoot(id, "intercept")
	tr.Bind("hp01", 7, root.Context())
	if got := tr.Bound("hp01", 7); got != root.Context() {
		t.Fatalf("Bound = %+v, want the bound context", got)
	}
	if got := tr.Bound("hp01", 8); got.Valid() {
		t.Fatalf("unbound (device,seq) resolves: %+v", got)
	}
	tr.Unbind("hp01", 7)
	if tr.Bound("hp01", 7).Valid() {
		t.Fatal("binding survives Unbind")
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	if !tr.StartTrace().IsZero() {
		t.Fatal("nil tracer starts traces")
	}
	s := tr.StartSpanAt(SpanContext{}, "x", time.Time{})
	s.SetAttr("k", "v")
	s.SetIntAttr("n", 1)
	s.SetError("boom")
	s.MarkAlert("kind", "msg")
	s.End() // all no-ops
	tr.Bind("d", 1, SpanContext{})
	tr.Unbind("d", 1)
	tr.MarkAlert(TraceID{})
	if tr.FinishTrace(TraceID{}) || tr.Retained() != nil || tr.ExportErr() != nil {
		t.Fatal("nil tracer is not inert")
	}
	real := NewTracer(Options{Seed: 1})
	if real.StartSpan(SpanContext{}, "x") != nil {
		t.Fatal("invalid parent yields a live span")
	}
}

func TestOTLPRoundTrip(t *testing.T) {
	tr := NewTracer(Options{SampleRate: 1, Seed: 13})
	id := tr.StartTrace()
	root := tr.StartRoot(id, "intercept")
	root.SetAttr("device", "viperx")
	child := tr.StartSpan(root.Context(), "before.trajectory")
	child.MarkAlert("invalid_trajectory", "sweep hit centrifuge")
	child.End()
	ok := tr.StartSpan(root.Context(), "execute")
	ok.SetError("device timeout")
	ok.End()
	root.End()
	tr.FinishTrace(id)
	td := tr.Find(id)

	data, err := MarshalOTLP(td)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalOTLP(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 {
		t.Fatalf("%d traces decoded, want 1", len(back))
	}
	got := back[0]
	if got.ID != td.ID || got.Alert != td.Alert || len(got.Spans) != len(td.Spans) {
		t.Fatalf("header mismatch: %+v vs %+v", got, td)
	}
	for i := range td.Spans {
		w, g := td.Spans[i], got.Spans[i]
		if w.Span != g.Span || w.Parent != g.Parent || w.Name != g.Name ||
			w.Err != g.Err || w.Alert != g.Alert {
			t.Fatalf("span %d mismatch:\nwant %+v\ngot  %+v", i, w, g)
		}
		if w.Start.UnixNano() != g.Start.UnixNano() || w.End.UnixNano() != g.End.UnixNano() {
			t.Fatalf("span %d timestamps drifted", i)
		}
		if !reflect.DeepEqual(w.Attrs, g.Attrs) {
			t.Fatalf("span %d attrs %v != %v", i, g.Attrs, w.Attrs)
		}
	}
}

// failAfterWriter fails every write past a byte budget; Sync and Close
// record that they ran.
type failAfterWriter struct {
	budget   int
	synced   bool
	closed   bool
	failSync bool
}

func (f *failAfterWriter) Write(p []byte) (int, error) {
	if f.budget <= 0 {
		return 0, errors.New("disk full")
	}
	if len(p) > f.budget {
		n := f.budget
		f.budget = 0
		return n, errors.New("disk full") // short write
	}
	f.budget -= len(p)
	return len(p), nil
}

func (f *failAfterWriter) Sync() error {
	f.synced = true
	if f.failSync {
		return errors.New("sync failed")
	}
	return nil
}

func (f *failAfterWriter) Close() error {
	f.closed = true
	return nil
}

func makeTrace(t *testing.T) *TraceData {
	t.Helper()
	tr := NewTracer(Options{SampleRate: 1, Seed: 21})
	id := tr.StartTrace()
	s := tr.StartRoot(id, "intercept")
	s.End()
	tr.FinishTrace(id)
	return tr.Find(id)
}

func TestFileExporterRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	ex := NewFileExporter(&buf)
	td := makeTrace(t)
	if err := ex.ExportTrace(td); err != nil {
		t.Fatal(err)
	}
	if err := ex.Close(); err != nil {
		t.Fatal(err)
	}
	back, err := ReadOTLP(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || back[0].ID != td.ID {
		t.Fatalf("read back %d traces", len(back))
	}
	if err := ex.ExportTrace(td); err == nil {
		t.Fatal("export after Close succeeded")
	}
}

func TestFileExporterShortWrite(t *testing.T) {
	w := &failAfterWriter{budget: 10}
	ex := NewFileExporter(w)
	if err := ex.ExportTrace(makeTrace(t)); err != nil {
		// The bufio layer may defer the failure to Flush/Close; either
		// surface is acceptable as long as it latches.
		t.Logf("export surfaced the short write immediately: %v", err)
	}
	err := ex.Close()
	if err == nil {
		t.Fatal("short write never surfaced")
	}
	if !w.closed {
		t.Fatal("underlying writer not closed after flush failure")
	}
	if w.synced {
		t.Fatal("synced a writer whose flush failed")
	}
	if got := ex.Close(); !errors.Is(got, err) {
		t.Fatalf("second Close = %v, want the latched %v", got, err)
	}
	if ex.Err() == nil {
		t.Fatal("Err() lost the latched error")
	}
}

func TestFileExporterSyncErrorPropagates(t *testing.T) {
	w := &failAfterWriter{budget: 1 << 20, failSync: true}
	ex := NewFileExporter(w)
	if err := ex.ExportTrace(makeTrace(t)); err != nil {
		t.Fatal(err)
	}
	if err := ex.Close(); err == nil || !strings.Contains(err.Error(), "sync failed") {
		t.Fatalf("Close = %v, want the sync error", err)
	}
	if !w.closed {
		t.Fatal("underlying writer not closed after sync failure")
	}
}

func TestTracesEndpoint(t *testing.T) {
	tr := NewTracer(Options{SampleRate: 1, Seed: 17})
	Register(tr)
	defer Unregister(tr)
	id := tr.StartTrace()
	s := tr.StartRoot(id, "intercept")
	s.End()
	tr.FinishTrace(id)
	other := tr.StartTrace()
	s = tr.StartRoot(other, "intercept")
	s.End()
	tr.FinishTrace(other)

	srv := httptest.NewServer(obs.Handler())
	defer srv.Close()

	resp := httpGet(t, srv.URL+"/traces")
	if ct := resp.header.Get("Content-Type"); !strings.HasPrefix(ct, "application/x-ndjson") {
		t.Errorf("/traces content-type %q", ct)
	}
	if !strings.Contains(resp.body, id.String()) || !strings.Contains(resp.body, other.String()) {
		t.Error("/traces missing retained traces")
	}
	// Each line round-trips through the OTLP reader.
	tds, err := ReadOTLP(strings.NewReader(resp.body))
	if err != nil {
		t.Fatalf("/traces output not OTLP-JSON lines: %v", err)
	}
	if len(tds) < 2 {
		t.Fatalf("/traces returned %d traces", len(tds))
	}

	filtered := httpGet(t, srv.URL+"/traces?id="+id.String())
	if !strings.Contains(filtered.body, id.String()) || strings.Contains(filtered.body, other.String()) {
		t.Error("?id filter not applied")
	}

	sum := httpGet(t, srv.URL+"/traces/summary")
	if ct := sum.header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("/traces/summary content-type %q", ct)
	}
	if !strings.Contains(sum.body, id.String()) {
		t.Error("/traces/summary missing trace")
	}
}
