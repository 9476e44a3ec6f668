package eval

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/action"
	"repro/internal/env"
	"repro/internal/geom"
	"repro/internal/obs/recorder"
	"repro/internal/rules"
	"repro/internal/trace"
)

// forensicsOptions is the fully equipped testbed configuration with the
// flight recorder writing bundles to dir.
func forensicsOptions(dir, tag string) Options {
	return Options{
		Stage:       env.StageTestbed,
		Rules:       rules.Config{Generation: rules.GenModified, Multiplex: rules.MultiplexTime},
		WithRABIT:   true,
		WithSim:     true,
		IncidentDir: dir,
		IncidentTag: tag,
		Seed:        1,
	}
}

// TestSpeculativeChainForensics drives the exact scenario the causal
// chain exists for: a command is hinted, the lookahead worker
// pre-validates it, and the on-path check later consumes the cached
// verdict and raises an alert. The bundle must link alert → speculation
// → hinting command.
func TestSpeculativeChainForensics(t *testing.T) {
	dir := t.TempDir()
	s, err := NewTestbedSetup(forensicsOptions(dir, "spec-chain"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Time multiplexing: park ned2 so viperx may move.
	if err := s.Interceptor.Do(action.Command{Device: "ned2", Action: action.MoveSleep}); err != nil {
		t.Fatal(err)
	}
	// The footnote-2 replay: park low south of the centrifuge, then ask
	// for the leg across it. Every endpoint satisfies the rules; only the
	// trajectory sweep — here pre-run by the hinted lookahead — can see
	// the mid-path collision.
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

	incs, err := recorder.LoadIncidents(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(incs) != 1 {
		t.Fatalf("%d bundles, want exactly 1", len(incs))
	}
	in := incs[0]
	if in.Manifest.AlertKind != "invalid_trajectory" {
		t.Fatalf("alert kind %q", in.Manifest.AlertKind)
	}
	if len(in.Manifest.Chain) != 3 {
		t.Fatalf("chain %v, want trigger → speculation → hinting command", in.Manifest.Chain)
	}
	trig, ok := in.Trigger()
	if !ok {
		t.Fatal("trigger not in bundle")
	}
	if trig.Verdict.Source != recorder.SourceSpeculative {
		t.Fatalf("trigger verdict source %q, want %q (cache served the pre-validated verdict)",
			trig.Verdict.Source, recorder.SourceSpeculative)
	}
	if trig.Verdict.SpecCorr != in.Manifest.Chain[1] {
		t.Fatalf("trigger SpecCorr %q != chain speculation %q", trig.Verdict.SpecCorr, in.Manifest.Chain[1])
	}
	spec, ok := in.Record(in.Manifest.Chain[1])
	if !ok || spec.Kind != recorder.KindSpeculation {
		t.Fatalf("chain[1] not a resolvable speculation record: %+v", spec)
	}
	if spec.Parent != in.Manifest.Chain[2] {
		t.Fatalf("speculation parent %q != chain[2] %q", spec.Parent, in.Manifest.Chain[2])
	}
	parent, ok := in.Record(in.Manifest.Chain[2])
	if !ok || parent.Kind != recorder.KindCommand {
		t.Fatal("chain[2] not a resolvable command record")
	}
	if parent.Device != "viperx" || parent.Action != string(action.MoveRobot) {
		t.Fatalf("chain[2] is not the hinting move: %+v", parent)
	}
	if len(trig.Rules) == 0 {
		t.Error("trigger carries no evaluated rule IDs")
	}
	// Satellite: the bundle's manifest names the alert's causal trace and
	// every record captured in the bundle — the speculation and the hinting
	// command included — belongs to that same trace.
	if len(in.Manifest.TraceID) != 32 {
		t.Errorf("manifest trace ID %q, want 32 hex chars", in.Manifest.TraceID)
	}
	for _, rec := range in.Records {
		if rec.Trace != in.Manifest.TraceID {
			t.Errorf("record %s trace %q != manifest trace %q", rec.Corr, rec.Trace, in.Manifest.TraceID)
		}
	}
	if len(trig.Pre) == 0 {
		t.Error("trigger carries no pre-state view")
	}
	if trig.AlertTNS == 0 {
		t.Error("trigger carries no alert timestamp")
	}
	rep := BuildIncidentReport(incs)
	if rep.SpeculationServed != 1 {
		t.Errorf("report speculation-served = %d, want 1", rep.SpeculationServed)
	}
	// The rendering paths must hold together on a real bundle.
	if out := RenderIncidentTimeline(in); out == "" {
		t.Error("empty timeline")
	}
	if out := RenderIncidentReport(rep); out == "" {
		t.Error("empty report")
	}
}

// TestBugStudyIncidentForensics replays the full Table V bug suite with
// the recorder writing bundles and demands the acceptance property: one
// bundle per bug the fully equipped configuration detects, each carrying
// the triggering rule IDs, captured state views, verdict provenance, and
// a resolvable correlation chain.
func TestBugStudyIncidentForensics(t *testing.T) {
	if testing.Short() {
		t.Skip("full bug study")
	}
	dir := t.TempDir()
	study, err := RunBugStudyWithIncidents(1, dir)
	if err != nil {
		t.Fatal(err)
	}
	incs, err := recorder.LoadIncidents(dir)
	if err != nil {
		t.Fatal(err)
	}
	byTag := map[string][]*recorder.Incident{}
	for _, in := range incs {
		byTag[in.Manifest.Tag] = append(byTag[in.Manifest.Tag], in)
	}
	for _, o := range study.Outcomes {
		got := byTag[o.Bug.Slug]
		if !o.Detected[ConfigModifiedSim] {
			if len(got) != 0 {
				t.Errorf("bug %s: undetected but %d bundles written", o.Bug.Slug, len(got))
			}
			continue
		}
		if len(got) != 1 {
			t.Errorf("bug %s: detected but %d bundles, want exactly 1", o.Bug.Slug, len(got))
			continue
		}
		in := got[0]
		if in.Manifest.AlertKind == "" {
			t.Errorf("bug %s: bundle has no alert kind", o.Bug.Slug)
		}
		if len(in.Manifest.RuleIDs) == 0 {
			t.Errorf("bug %s: bundle names no rule IDs", o.Bug.Slug)
		}
		trig, ok := in.Trigger()
		if !ok {
			t.Errorf("bug %s: trigger unresolvable", o.Bug.Slug)
			continue
		}
		if len(trig.Pre) == 0 && len(trig.Observed) == 0 {
			t.Errorf("bug %s: trigger carries no state views", o.Bug.Slug)
		}
		for _, corr := range in.Manifest.Chain {
			if _, ok := in.Record(corr); !ok {
				t.Errorf("bug %s: chain entry %s not in records.jsonl", o.Bug.Slug, corr)
			}
		}
		if in.Manifest.TraceID == "" {
			t.Errorf("bug %s: manifest carries no trace ID", o.Bug.Slug)
		}
		for _, rec := range in.Records {
			if rec.Trace != in.Manifest.TraceID {
				t.Errorf("bug %s: record %s trace %q != manifest trace %q",
					o.Bug.Slug, rec.Corr, rec.Trace, in.Manifest.TraceID)
			}
		}
	}
	// Bundle count == detections: no spurious extra incidents anywhere.
	if want := study.DetectedCount(ConfigModifiedSim); len(incs) != want {
		t.Errorf("%d bundles for %d detections", len(incs), want)
	}
}

// TestShardedRecorderRace floods the sharded pipeline from concurrent
// scripts with the recorder enabled, one of which issues an unsafe
// setpoint mid-stream; the alert must yield exactly one bundle with a
// resolvable chain. Run under -race (CI does) this is also the recorder's
// data-race test.
func TestShardedRecorderRace(t *testing.T) {
	const scripts = 8
	dir := t.TempDir()
	s, err := NewSetup(throughputSpec(scripts), Options{
		Stage:       env.StageTestbed,
		Rules:       rules.Config{Generation: rules.GenModified, Multiplex: rules.MultiplexTime},
		WithRABIT:   true,
		IncidentDir: dir,
		IncidentTag: "race",
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var wg sync.WaitGroup
	for g := 0; g < scripts; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ic := trace.NewInterceptor(s.Engine, s.Env)
			ic.SetRecorder(s.Recorder)
			ic.SetTracer(s.Tracer)
			device := fmt.Sprintf("hp%02d", g)
			for _, cmd := range throughputScript(device, 40) {
				if g == 3 && cmd.Seq == 0 && cmd.Action == action.SetActionValue && cmd.Value > 100 {
					cmd.Value = 1000 // beyond MaxSafeValue: invalid command
				}
				if err := ic.Do(cmd); err != nil {
					return // the alert (or the stopped engine) ends the script
				}
			}
		}(g)
	}
	wg.Wait()

	alerts := s.Engine.Alerts()
	if len(alerts) == 0 {
		t.Fatal("unsafe setpoint raised no alert")
	}
	if err := s.Recorder.Err(); err != nil {
		t.Fatalf("bundle write: %v", err)
	}
	incs, err := recorder.LoadIncidents(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(incs) != len(alerts) {
		t.Fatalf("%d bundles for %d alerts, want exactly one each", len(incs), len(alerts))
	}
	for _, in := range incs {
		if len(in.Manifest.Chain) == 0 {
			t.Fatal("bundle has no chain")
		}
		for _, corr := range in.Manifest.Chain {
			if _, ok := in.Record(corr); !ok {
				t.Fatalf("chain entry %s not in records.jsonl", corr)
			}
		}
		trig, ok := in.Trigger()
		if !ok {
			t.Fatal("trigger unresolvable")
		}
		if trig.Path != recorder.PathSharded {
			t.Errorf("trigger path %q, want sharded", trig.Path)
		}
		if len(trig.Violations) == 0 {
			t.Error("trigger names no violated rules")
		}
	}
}

// randomInterleaving merges per-device command streams into one randomized
// sequential order, preserving each device's internal order — the shape of
// interleavings the sharded pipeline admits.
func randomInterleaving(rng *rand.Rand, scripts, perScript int) []action.Command {
	streams := make([][]action.Command, scripts)
	for g := range streams {
		streams[g] = throughputScript(fmt.Sprintf("hp%02d", g), perScript)
	}
	var out []action.Command
	for {
		live := 0
		for _, st := range streams {
			if len(st) > 0 {
				live++
			}
		}
		if live == 0 {
			return out
		}
		k := rng.Intn(live)
		for g, st := range streams {
			if len(st) == 0 {
				continue
			}
			if k == 0 {
				out = append(out, st[0])
				streams[g] = st[1:]
				break
			}
			k--
		}
	}
}

// replayVerdict replays one command sequence and reduces the run to a
// comparable verdict: per-command outcomes plus the alert signature.
func replayVerdict(t *testing.T, cmds []action.Command, unsafeAt int, noRecorder bool) []string {
	t.Helper()
	s, err := NewSetup(throughputSpec(8), Options{
		Stage:      env.StageTestbed,
		Rules:      rules.Config{Generation: rules.GenModified, Multiplex: rules.MultiplexTime},
		WithRABIT:  true,
		NoRecorder: noRecorder,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var verdict []string
	for i, cmd := range cmds {
		if i == unsafeAt && cmd.Action == action.SetActionValue {
			cmd.Value = 999
		}
		err := s.Interceptor.Do(cmd)
		verdict = append(verdict, fmt.Sprintf("%s err=%v", cmd, err != nil))
	}
	return append(verdict, alertSignature(s.Engine.Alerts())...)
}

// TestRecorderObserverEffect is the recorder-on/off property test: over
// randomized replay interleavings (including one that trips an alert),
// the recorder must never change an outcome, a verdict, or an alert —
// it is an observer, not an actor.
func TestRecorderObserverEffect(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			cmds := randomInterleaving(rng, 8, 12)
			unsafeAt := -1
			if seed%2 == 1 { // odd seeds inject one unsafe setpoint
				unsafeAt = rng.Intn(len(cmds))
			}
			on := replayVerdict(t, cmds, unsafeAt, false)
			off := replayVerdict(t, cmds, unsafeAt, true)
			if !reflect.DeepEqual(on, off) {
				t.Errorf("recorder changed the run:\non:  %v\noff: %v", on, off)
			}
		})
	}
}

// BenchmarkRecorderOverhead measures the flight recorder's cost on the
// sharded replay-throughput benchmark in the deployment configuration
// CI tracks (paced replay, Speedup 200): paired runs with the recorder
// on and off. The acceptance bar is < 2% throughput overhead there.
func BenchmarkRecorderOverhead(b *testing.B) {
	run := func(noRecorder bool) float64 {
		res, err := Throughput(ThroughputOptions{
			Scripts:           8,
			CommandsPerScript: 40,
			Speedup:           200,
			NoRecorder:        noRecorder,
			Seed:              1,
		})
		if err != nil {
			b.Fatal(err)
		}
		return res.CommandsPerSec
	}
	run(true) // warm up
	var on, off float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off += run(true)
		on += run(false)
	}
	b.StopTimer()
	if off > 0 {
		b.ReportMetric(100*(off-on)/off, "overhead-%")
	}
}
