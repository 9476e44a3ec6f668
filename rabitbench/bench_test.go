package main

import (
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/action"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/world"
)

// Every output check must accept correct output and refuse a corrupted
// copy of it.

func okVerdicts(n, lastSeq int) []gateway.CommandResult {
	out := make([]gateway.CommandResult, n)
	for i := range out {
		out[i] = gateway.CommandResult{Seq: lastSeq + i + 1, Outcome: gateway.OutcomeOK}
	}
	return out
}

func TestCheckVerdicts(t *testing.T) {
	if err := checkVerdicts(okVerdicts(4, 8), 4, 8); err != nil {
		t.Fatalf("correct verdicts refused: %v", err)
	}
	blocked := okVerdicts(4, 8)
	blocked[2].Outcome = gateway.OutcomeBlocked
	missing := okVerdicts(3, 8)
	gap := okVerdicts(4, 8)
	gap[3].Seq++
	for name, vs := range map[string][]gateway.CommandResult{"non-ok": blocked, "missing": missing, "seq gap": gap} {
		if err := checkVerdicts(vs, 4, 8); err == nil {
			t.Errorf("%s verdict accepted", name)
		}
	}
}

func TestCheckFleet(t *testing.T) {
	model := map[string]float64{"hp00": 70, "hp01": 120}
	status := map[string]world.FixtureStatus{"hp00": {ActionValue: 70}, "hp01": {ActionValue: 120}}
	if err := checkFleet(model, status, 400, 400, 0); err != nil {
		t.Fatalf("correct fleet refused: %v", err)
	}
	wrong := map[string]world.FixtureStatus{"hp00": {ActionValue: 70}, "hp01": {ActionValue: 121}}
	if checkFleet(model, wrong, 400, 400, 0) == nil {
		t.Error("wrong final hotplate value accepted")
	}
	running := map[string]world.FixtureStatus{"hp00": {ActionValue: 70}, "hp01": {ActionValue: 120, Running: true}}
	if checkFleet(model, running, 400, 400, 0) == nil {
		t.Error("hotplate left running accepted")
	}
	if checkFleet(model, status, 400, 399, 0) == nil {
		t.Error("command counter off by one accepted")
	}
	if checkFleet(model, status, 400, 400, 1) == nil {
		t.Error("a 429 response accepted")
	}
}

func TestCheckDeckPass(t *testing.T) {
	if err := checkDeckPass(nil, nil, nil); err != nil {
		t.Fatalf("clean pass refused: %v", err)
	}
	if checkDeckPass(nil, []world.Event{{Description: "viperx struck the platform"}}, nil) == nil {
		t.Error("nonzero world damage accepted")
	}
	if checkDeckPass([]core.Alert{{Kind: core.AlertInvalidTrajectory}}, nil, nil) == nil {
		t.Error("an alert accepted")
	}
	if checkDeckPass(nil, nil, []error{errors.New("missed")}) == nil {
		t.Error("a missed target accepted")
	}
}

func TestCheckCampaign(t *testing.T) {
	good := func() *campaign.Summary {
		s := &campaign.Summary{}
		s.ByFault[0] = campaign.KindStats{Scenarios: 90}
		s.ByFault[1] = campaign.KindStats{Scenarios: 30, Unsafe: 12, Detected: 10, Missed: 2}
		s.ByFault[2] = campaign.KindStats{Scenarios: 20, Unsafe: 5, Detected: 5}
		s.ByFault[3] = campaign.KindStats{Scenarios: 20, Unsafe: 4, Detected: 3, Missed: 1}
		return s
	}
	tl := tally{scenarios: [4]int64{90, 30, 20, 20}, unsafe: [4]int64{0, 12, 5, 4}}
	if err := checkCampaign(good(), tl); err != nil {
		t.Fatalf("correct summary refused: %v", err)
	}
	offByOne := good()
	offByOne.ByFault[1].Unsafe++
	offByOne.ByFault[1].Missed++
	if checkCampaign(offByOne, tl) == nil {
		t.Error("unsafe count off by one accepted")
	}
	split := good()
	split.ByFault[3].Missed = 0
	if checkCampaign(split, tl) == nil {
		t.Error("detected + missed != unsafe accepted")
	}
	count := good()
	count.ByFault[2].Scenarios--
	if checkCampaign(count, tl) == nil {
		t.Error("scenario count off by one accepted")
	}
	alarm := good()
	alarm.FalseAlarms = 1
	if checkCampaign(alarm, tl) == nil {
		t.Error("a false alarm accepted")
	}
	setup := good()
	setup.SetupErrors = 1
	if checkCampaign(setup, tl) == nil {
		t.Error("a setup error accepted")
	}
	naive := good()
	naive.ByFault[1].Detected--
	naive.ByFault[1].Missed++
	if checkPooledNaive(good(), naive) == nil {
		t.Error("pooled and naive disagreement accepted")
	}
	if err := checkPooledNaive(good(), good()); err != nil {
		t.Errorf("identical pooled and naive refused: %v", err)
	}
}

// TestGatewayChecksOnRealOutput runs a few gateway ops and checks the
// real output passes and a corrupted model fails.
func TestGatewayChecksOnRealOutput(t *testing.T) {
	s, err := bootGateway()
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	hc := &http.Client{}
	defer hc.CloseIdleConnections()
	c := &gwClient{s: s, hc: hc, device: fleetDevice(0), rng: rand.New(rand.NewSource(1))}
	if err := c.open(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := c.op(); err != nil {
			t.Fatal(err)
		}
	}
	sys := s.sys.Load()
	st, _ := sys.Env.World().FixtureStatus(c.device)
	status := map[string]world.FixtureStatus{c.device: st}
	processed := sys.Obs.Counter(obs.CounterCommands).Value()
	if err := checkFleet(map[string]float64{c.device: c.model}, status, c.commands, processed, c.rejected); err != nil {
		t.Fatalf("real output refused: %v", err)
	}
	if checkFleet(map[string]float64{c.device: c.model + 1}, status, c.commands, processed, c.rejected) == nil {
		t.Error("corrupted model accepted")
	}
}

// TestDeckStreamReplays replays the start of committed stream 1 on a
// fresh System: the checks pass, and a target moved off its screened
// position is reported by the reach check.
func TestDeckStreamReplays(t *testing.T) {
	ts, err := readStream(streamPath("inputs", 1))
	if err != nil {
		t.Fatal(err)
	}
	cmds := expandStream(ts[:24])
	st, err := newSystemStack(false)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	var lat []time.Duration
	done, failed, check := deckPass(st, cmds, &lat)
	if failed || check != nil || done != int64(len(cmds)) {
		t.Fatalf("committed stream: done %d of %d, failed %v, check %v", done, len(cmds), failed, check)
	}
	moved := action.Command{Device: ts[23].Arm, Action: action.MoveRobot, Target: ts[23].Target.Add(geom.V(0.05, 0, 0))}
	if reachError(st.lab, st.world, moved) == nil {
		t.Error("a tool 5 cm from its target passed the reach check")
	}
}

func TestExpandStream(t *testing.T) {
	var ts []deckTarget
	for i := 0; i < 10; i++ {
		arm := "viperx"
		if i >= 5 {
			arm = "ned2"
		}
		ts = append(ts, deckTarget{Arm: arm, Target: geom.V(0.3, 0, 0.2)})
	}
	cmds := expandStream(ts)
	if c := cmds[0]; c.Device != "ned2" || c.Action != action.MoveSleep {
		t.Fatalf("first command %s, want ned2 to sleep", c)
	}
	var doors, moves, switches int
	for i, c := range cmds {
		switch c.Action {
		case action.OpenDoor:
			doors++
		case action.MoveRobot:
			moves++
			if cmds[i+1].Action != action.MoveHome || cmds[i+1].Device != c.Device {
				t.Errorf("move %d is not followed by its arm's homing move", i)
			}
		case action.MoveSleep:
			switches++
		}
	}
	if doors != 1 || moves != 10 || switches != 2 {
		t.Errorf("doors %d moves %d sleeps %d, want 1, 10, 2", doors, moves, switches)
	}
}

func TestStreamRoundTrip(t *testing.T) {
	want := candidateTargets(7, 20)
	p := filepath.Join(t.TempDir(), "s.txt")
	if err := writeStream(p, want, "line one\nline two"); err != nil {
		t.Fatal(err)
	}
	got, err := readStream(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d targets back, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("target %d: %v, want %v", i, got[i], want[i])
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(data, n=4) in Python.
	cases := []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{3, 1, 2, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1.5, 2.5, 10}, [3]float64{1.5, 2.5, 10}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
	}
	for _, c := range cases {
		q1, med, q3 := quartiles(c.in)
		if got := [3]float64{q1, med, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the runs print %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s %s, runs print %s %s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q has no implementation", w.Name)
		}
	}
	want := map[string]string{"setup_s": "s", "ops_per_s": "op/s", "lat_p50_us": "us",
		"cpu_us_per_op": "us", "allocs_per_op": "count", "alloc_kb_per_op": "KiB", "heap_live_mb": "MiB"}
	if len(b.EndToEnd) != len(want) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, the runs print %d", len(b.EndToEnd), len(want))
	}
	for _, m := range b.EndToEnd {
		if want[m.Name] != m.Unit {
			t.Errorf("end_to_end %s %s is not printed with that unit", m.Name, m.Unit)
		}
	}
}

func TestLoadStreamsRotates(t *testing.T) {
	a, err := loadStreams("inputs", 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := loadStreams("inputs", 3+inputSeeds)
	if err != nil {
		t.Fatal(err)
	}
	one, err := readStream(streamPath("inputs", 3))
	if err != nil {
		t.Fatal(err)
	}
	want := expandStream(one)
	if len(a) != inputSeeds || len(a[0]) != len(want) {
		t.Fatalf("seed 3 does not start at stream 3")
	}
	for i := range want {
		if a[0][i] != want[i] || b[0][i] != want[i] {
			t.Fatalf("command %d: seed 3 starts with %s, seed %d with %s, stream 3 has %s", i, a[0][i], 3+inputSeeds, b[0][i], want[i])
		}
	}
}
