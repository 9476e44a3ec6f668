package eval

import (
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/action"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/obs/recorder"
	otrace "repro/internal/obs/trace"
)

// TestAlertTraceEndToEnd is the tracing acceptance criterion: a detected
// bug yields (a) an incident bundle whose manifest names the causal
// trace, (b) a tail-retained OTLP-JSON trace whose spans run from the
// interception root through the simulator verdict with the speculative
// lookahead parented into the hinting command, and (c) a cause-first
// tree rendering of that trace.
func TestAlertTraceEndToEnd(t *testing.T) {
	dir := t.TempDir()
	traceFile := filepath.Join(dir, "traces.otlp.jsonl")
	o := forensicsOptions(dir, "trace-e2e")
	o.TraceFile = traceFile
	s, err := NewTestbedSetup(o)
	if err != nil {
		t.Fatal(err)
	}

	// The footnote-2 speculative-chain replay (see
	// TestSpeculativeChainForensics): the hinted lookahead pre-validates
	// the mid-path centrifuge crossing, and the on-path check later
	// consumes that speculative verdict and raises the alert.
	if err := s.Interceptor.Do(action.Command{Device: "ned2", Action: action.MoveSleep}); err != nil {
		t.Fatal(err)
	}
	via := action.Command{Device: "viperx", Action: action.MoveRobot, Target: geom.V(0.63, -0.38, 0.30)}
	down := action.Command{Device: "viperx", Action: action.MoveRobot, Target: geom.V(0.63, -0.38, 0.12)}
	leg := action.Command{Device: "viperx", Action: action.MoveRobot, Target: geom.V(0.63, -0.02, 0.12)}
	if err := s.Interceptor.Do(via); err != nil {
		t.Fatalf("via move: %v", err)
	}
	if err := s.Interceptor.DoLookahead(down, leg); err != nil {
		t.Fatalf("down move: %v", err)
	}
	s.Engine.WaitSpeculation()
	if err := s.Interceptor.Do(leg); err == nil {
		t.Fatal("mid-path centrifuge crossing accepted")
	}
	if err := s.Close(); err != nil { // drains, finishes the trace, closes the file
		t.Fatalf("close: %v", err)
	}

	incs, err := recorder.LoadIncidents(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(incs) != 1 {
		t.Fatalf("%d bundles, want 1", len(incs))
	}
	wantTrace := incs[0].Manifest.TraceID
	if len(wantTrace) != 32 {
		t.Fatalf("manifest trace ID %q", wantTrace)
	}

	tds, err := otrace.ReadFile(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	var td *otrace.TraceData
	for _, cand := range tds {
		if cand.ID.String() == wantTrace {
			td = cand
		}
	}
	if td == nil {
		t.Fatalf("manifest trace %s not in exported file (%d traces)", wantTrace, len(tds))
	}
	if !td.Alert {
		t.Fatal("alert trace not flagged as alert")
	}

	find := func(name string) []otrace.SpanData {
		var out []otrace.SpanData
		for _, sd := range td.Spans {
			if sd.Name == name {
				out = append(out, sd)
			}
		}
		return out
	}
	// One interception root per command: park, via, down, leg.
	roots := find(obs.StageIntercept)
	if len(roots) != 4 {
		t.Fatalf("%d intercept roots, want 4", len(roots))
	}
	for _, name := range []string{obs.StageValidate, obs.StageTrajectory, obs.StageExecute,
		obs.StageFetch, obs.StageCompare, "speculate", "kin.plan", "sim.sweep", "sim.verdict"} {
		if len(find(name)) == 0 {
			t.Errorf("trace has no %q span", name)
		}
	}

	// The speculate span is parented into the hinting command's
	// interception root, and the simulator's spans are its children.
	spec := find("speculate")
	if len(spec) != 1 {
		t.Fatalf("%d speculate spans, want 1", len(spec))
	}
	parentIsRoot := false
	for _, r := range roots {
		if r.Span == spec[0].Parent {
			parentIsRoot = true
		}
	}
	if !parentIsRoot {
		t.Error("speculate span not parented to an interception root")
	}
	under := func(sd otrace.SpanData, parent otrace.SpanID) bool { return sd.Parent == parent }
	for _, name := range []string{"kin.plan", "sim.sweep"} {
		found := false
		for _, sd := range find(name) {
			if under(sd, spec[0].Span) {
				found = true
			}
		}
		if !found {
			t.Errorf("no %q span under the speculate span", name)
		}
	}

	// The on-path trajectory check that raised the alert consumed the
	// speculative verdict: its sim.verdict child says so, and the
	// trajectory span carries the alert mark that pinned retention.
	alertSeen := false
	for _, sd := range find(obs.StageTrajectory) {
		if sd.Alert {
			alertSeen = true
			specServed := false
			for _, v := range find("sim.verdict") {
				if under(v, sd.Span) {
					for _, a := range v.Attrs {
						if a.Key == "source" && a.Val == recorder.SourceSpeculative {
							specServed = true
						}
					}
				}
			}
			if !specServed {
				t.Error("alerting trajectory span has no speculative sim.verdict child")
			}
		}
	}
	if !alertSeen {
		t.Error("no trajectory span carries the alert mark")
	}

	out := RenderTraceTree(td)
	if !strings.Contains(out, "ALERT") || !strings.Contains(out, "speculate") {
		t.Errorf("rendered tree missing ALERT/speculate:\n%s", out)
	}
	if rendered, err := RenderTraceFile(traceFile); err != nil || !strings.Contains(rendered, wantTrace) {
		t.Errorf("RenderTraceFile: err=%v, trace ID present=%v", err, strings.Contains(rendered, wantTrace))
	}
}

// TestThroughputWithTracing runs the sharded replay with tracing on —
// under -race this is the tracer's concurrency test across per-script
// interceptors — and checks the run stays alert-free and the tracer's
// telemetry accounts for every script's run trace.
func TestThroughputWithTracing(t *testing.T) {
	res, err := Throughput(ThroughputOptions{Scripts: 8, CommandsPerScript: 24, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Commands != 8*24 {
		t.Fatalf("processed %d commands, want %d", res.Commands, 8*24)
	}
}

// BenchmarkTraceOverhead measures the causal tracing layer's cost on the
// paced sharded replay — the deployment configuration CI tracks, with
// the recorder on in both arms so the delta isolates tracing. The
// acceptance bar is ≤ 2% throughput overhead.
//
// Each iteration is one untraced/traced pair, run back to back in
// alternating order so drift between the two halves cancels; the
// reported overhead-% is the median of the per-pair overheads. One
// paced run is mostly device-time sleep and reads a few percent of
// scheduling noise on a small host, so a 2% gate needs many pairs
// (CI runs 101) and an outlier-proof statistic.
func BenchmarkTraceOverhead(b *testing.B) {
	run := func(noTracing bool) float64 {
		res, err := Throughput(ThroughputOptions{
			Scripts:           8,
			CommandsPerScript: 40,
			Speedup:           200,
			NoTracing:         noTracing,
			Seed:              1,
		})
		if err != nil {
			b.Fatal(err)
		}
		return res.CommandsPerSec
	}
	run(true) // warm up
	overheads := make([]float64, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var off, on float64
		if i%2 == 0 {
			off = run(true)
			on = run(false)
		} else {
			on = run(false)
			off = run(true)
		}
		if off > 0 {
			overheads = append(overheads, 100*(off-on)/off)
		}
	}
	b.StopTimer()
	if len(overheads) > 0 {
		b.ReportMetric(median(overheads), "overhead-%")
	}
}

// median returns the median of xs, which it sorts in place.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	mid := len(xs) / 2
	if len(xs)%2 == 0 {
		return (xs[mid-1] + xs[mid]) / 2
	}
	return xs[mid]
}
