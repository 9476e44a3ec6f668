package campaign

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/world"
)

// testGen builds one generator (3 labs x 1 variant) shared by the
// hand-picked scenario tests; deck construction pays IK reachability
// sweeps, so tests share it rather than rebuilding per case.
var (
	testGenOnce sync.Once
	testGenVal  *Generator
	testGenErr  error
)

func testGen(t *testing.T) *Generator {
	t.Helper()
	testGenOnce.Do(func() {
		testGenVal, testGenErr = NewGenerator(1, 1)
	})
	if testGenErr != nil {
		t.Fatalf("generator: %v", testGenErr)
	}
	return testGenVal
}

// testbedScenario builds a hand-picked testbed scenario on the pristine
// deck variant.
func testbedScenario(t *testing.T, tasks []Task) *Scenario {
	t.Helper()
	return &Scenario{Index: 0, Seed: 0xbeef, Deck: testGen(t).labs[0][0], Tasks: tasks}
}

// stepIndex finds a step by name in the scenario's base script.
func stepIndex(t *testing.T, sc *Scenario, name string) int {
	t.Helper()
	for i, n := range stepNames(sc) {
		if n == name {
			return i
		}
	}
	t.Fatalf("no step %q in %v", name, stepNames(sc))
	return -1
}

func ferryTask() []Task {
	return []Task{{Kind: TaskFerry, Vial: "vial_1", Slot: "grid_NW", QtyMg: 3}}
}

func hotplateTask(temp float64) []Task {
	return []Task{{Kind: TaskHotplate, Vial: "vial_2", Slot: "grid_SW", TempC: temp}}
}

// oracleVerdict runs the unprotected oracle replay and returns whether
// the world recorded damage.
func oracleVerdict(t *testing.T, sc *Scenario) bool {
	t.Helper()
	unsafe, _, _, _ := runOracle(sc, nil, nil)
	return unsafe
}

// TestOracleDeleteClassification: removing the door-open before the arm
// reaches into the dosing device is physically unsafe (the arm smashes
// the closed door); removing the dosing action itself moves no hardware.
func TestOracleDeleteClassification(t *testing.T) {
	unsafe := testbedScenario(t, ferryTask())
	i := stepIndex(t, unsafe, "t0-open-door")
	unsafe.Fault = Fault{Kind: FaultDelete, Step: i, StepName: "t0-open-door"}
	if !oracleVerdict(t, unsafe) {
		t.Errorf("deleting t0-open-door: oracle says safe, want unsafe")
	}

	safe := testbedScenario(t, ferryTask())
	i = stepIndex(t, safe, "t0-dose")
	safe.Fault = Fault{Kind: FaultDelete, Step: i, StepName: "t0-dose"}
	if oracleVerdict(t, safe) {
		t.Errorf("deleting t0-dose: oracle says unsafe, want safe")
	}
}

// TestOracleReorderClassification: deferring the door-open to the end of
// the script is as unsafe as deleting it; swapping the two argument-free
// prologue device ops (decap before door-open) changes nothing physical.
func TestOracleReorderClassification(t *testing.T) {
	unsafe := testbedScenario(t, ferryTask())
	i := stepIndex(t, unsafe, "t0-open-door")
	last := len(stepNames(unsafe)) - 1
	unsafe.Fault = Fault{Kind: FaultReorder, Step: i, To: last,
		StepName: "t0-open-door", ToName: stepNames(unsafe)[last]}
	if !oracleVerdict(t, unsafe) {
		t.Errorf("deferring t0-open-door: oracle says safe, want unsafe")
	}

	safe := testbedScenario(t, ferryTask())
	i = stepIndex(t, safe, "t0-decap")
	safe.Fault = Fault{Kind: FaultReorder, Step: i, To: i - 1,
		StepName: "t0-decap", ToName: stepNames(safe)[i-1]}
	if oracleVerdict(t, safe) {
		t.Errorf("swapping decap before door-open: oracle says unsafe, want safe")
	}
}

// TestOracleMutateClassification: a 400C setpoint clears the firmware
// cap (408C) but exceeds the plate's physical rating (340C), so running
// it destroys the device; 90C stays below both the rule threshold and
// the rating.
func TestOracleMutateClassification(t *testing.T) {
	unsafe := testbedScenario(t, hotplateTask(400))
	unsafe.Fault = Fault{Kind: FaultMutate, Mut: Mutation{Param: "temp", Task: 0, Scale: 5}}
	if !oracleVerdict(t, unsafe) {
		t.Errorf("hotplate at 450C: oracle says safe, want unsafe")
	}

	safe := testbedScenario(t, hotplateTask(90))
	safe.Fault = Fault{Kind: FaultMutate, Mut: Mutation{Param: "temp", Task: 0, Scale: 1.5}}
	if oracleVerdict(t, safe) {
		t.Errorf("hotplate at 90C: oracle says unsafe, want safe")
	}

	// The Bug D idiom: the script's location table is edited so the place
	// descends 5cm into the hotplate body.
	crash := testbedScenario(t, hotplateTask(80))
	crash.Fault = Fault{Kind: FaultMutate, Mut: Mutation{Arm: "viperx", Loc: "hp_place", DZ: -0.05}}
	if !oracleVerdict(t, crash) {
		t.Errorf("hp_place 5cm low: oracle says safe, want unsafe")
	}
}

// TestPooledStackReuseNoBleed reuses one pooled stack across scenarios:
// an alerting scenario (hotplate setpoint over the rule threshold)
// followed by a clean one. Any state bleeding across the reset path —
// engine alerts, simulator mirror joints, stale verdicts — would turn
// the clean scenario's verdict.
func TestPooledStackReuseNoBleed(t *testing.T) {
	deck := testGen(t).labs[0][0]
	rt := newDeckRuntime(deck, "")

	hot := &Scenario{Index: 1, Seed: 0x11, Deck: deck, Tasks: hotplateTask(450),
		Fault: Fault{Kind: FaultMutate, Mut: Mutation{Param: "temp", Task: 0, Scale: 5}}}
	alerted, _, _, err := rt.runPooled(hot, false, "")
	if err != nil {
		t.Fatalf("hot scenario: %v", err)
	}
	if !alerted {
		t.Fatalf("hotplate at 450C did not alert")
	}

	clean := &Scenario{Index: 2, Seed: 0x22, Deck: deck, Tasks: hotplateTask(80)}
	alerted, runErr, _, err := rt.runPooled(clean, false, "")
	if err != nil {
		t.Fatalf("clean scenario: %v", err)
	}
	if alerted {
		t.Errorf("clean scenario alerted on a reused stack: alert state bled through reset")
	}
	if runErr != nil {
		t.Errorf("clean scenario on reused stack errored: %v", runErr)
	}
}

// TestScenarioStreamDeterminism: the scenario stream is a pure function
// of the master seed — byte-identical across generator instances, and
// different seeds diverge.
func TestScenarioStreamDeterminism(t *testing.T) {
	a, err := NewGenerator(42, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewGenerator(42, 2)
	if err != nil {
		t.Fatal(err)
	}
	const n = 400
	fa, fb := a.Fingerprints(n), b.Fingerprints(n)
	if fa != fb {
		t.Fatalf("same seed produced different scenario streams")
	}
	if lines := strings.Count(fa, "\n"); lines != n {
		t.Fatalf("fingerprint stream has %d lines, want %d", lines, n)
	}
	c, err := NewGenerator(43, 2)
	if err != nil {
		t.Fatal(err)
	}
	if c.Fingerprints(n) == fa {
		t.Fatalf("different seeds produced identical scenario streams")
	}
}

// TestCampaignWorkerInvariance: the summary's invariant section is
// byte-identical at 1 and 8 workers — scenario outcomes are pure
// functions of (seed, index) and aggregation is order-free.
func TestCampaignWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var counts []string
	for _, w := range []int{1, 8} {
		s, err := Run(Options{N: 96, Seed: 7, Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		counts = append(counts, s.Counts())
	}
	if counts[0] != counts[1] {
		t.Errorf("summary varies with worker count:\nworkers=1:\n%s\nworkers=8:\n%s", counts[0], counts[1])
	}
}

// TestPooledNaiveEquivalence: the pooled runner must be a pure
// optimization — same verdicts, same summary — of the naive
// build-everything-per-scenario baseline. This is the cross-scenario
// bleed regression: any pooled state leaking between scenarios shows up
// as a divergence from the naive run.
func TestPooledNaiveEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	pooled, err := Run(Options{N: 60, Seed: 11, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	naive, err := Run(Options{N: 60, Seed: 11, Workers: 4, Naive: true})
	if err != nil {
		t.Fatal(err)
	}
	p := strings.Replace(pooled.Counts(), "naive=false", "naive=?", 1)
	n := strings.Replace(naive.Counts(), "naive=true", "naive=?", 1)
	if p != n {
		t.Errorf("pooled and naive runs disagree:\npooled:\n%s\nnaive:\n%s", pooled.Counts(), naive.Counts())
	}
}

// TestCampaignRaceSmall is the shape the CI -race job runs: a small
// parallel campaign with more workers than scenarios per chunk, so
// stealing, pool reuse, and the shared plan caches all interleave.
func TestCampaignRaceSmall(t *testing.T) {
	s, err := Run(Options{N: 24, Seed: 3, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Totals().Scenarios; got != 24 {
		t.Errorf("ran %d scenarios, want 24", got)
	}
}

// TestCampaignSweepMemo: a pooled run answers world sweeps from the
// decks' sweep memos and reports it; a naive run installs no memo, so
// every deck's memo stays untouched and the summary reports none.
func TestCampaignSweepMemo(t *testing.T) {
	pooled, err := Run(Options{N: 24, Seed: 5, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st := pooled.SweepMemo; st.Hits == 0 || st.Misses == 0 {
		t.Errorf("pooled run: sweep memo %+v, want hits and misses", st)
	}

	o := Options{N: 8, Seed: 5, Workers: 2, Naive: true}
	gen, err := NewGenerator(o.Seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	runtimes := newRuntimes(gen, "")
	naive := run(o, gen, runtimes)
	if naive.SweepMemo != (world.SweepMemoStats{}) {
		t.Errorf("naive run reports sweep memo %+v", naive.SweepMemo)
	}
	for _, rt := range runtimes {
		if st := rt.worldSweeps.Stats(); st != (world.SweepMemoStats{}) {
			t.Errorf("naive run used a deck's sweep memo: %+v", st)
		}
	}
}

// runtimesWithSweepMemo builds gen's deck runtimes with sweep memos
// bounded by capacity.
func runtimesWithSweepMemo(gen *Generator, capacity int) map[*Deck]*deckRuntime {
	runtimes := newRuntimes(gen, "")
	for _, rt := range runtimes {
		rt.worldSweeps = world.NewSweepMemo(capacity)
	}
	return runtimes
}

// TestSweepMemoEvictionMatchesNaive: with a memo bound far below the
// working set, the memos are cleared over and over, and the pooled run
// still classifies every scenario as the naive baseline does.
func TestSweepMemoEvictionMatchesNaive(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	o := Options{N: 60, Seed: 11, Workers: 4}
	gen, err := NewGenerator(o.Seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	pooled := run(o, gen, runtimesWithSweepMemo(gen, 8))
	if pooled.SweepMemo.Evictions == 0 || pooled.SweepMemo.Hits == 0 {
		t.Fatalf("sweep memo %+v: the bound must evict and the memo still hit", pooled.SweepMemo)
	}
	o.Naive = true
	naive, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	p := strings.Replace(pooled.Counts(), "naive=false", "naive=?", 1)
	n := strings.Replace(naive.Counts(), "naive=true", "naive=?", 1)
	if p != n {
		t.Errorf("pooled run with a tiny sweep memo and naive run disagree:\npooled:\n%s\nnaive:\n%s", pooled.Counts(), naive.Counts())
	}
}

// TestSweepMemoBoundedAcrossRounds: ten rounds on the same deck
// runtimes never leave a deck's memo above its bound of entries or of
// interned sets, and every round classifies its scenarios the same.
func TestSweepMemoBoundedAcrossRounds(t *testing.T) {
	const capacity = 16
	o := Options{N: 16, Seed: 9, Workers: 2}
	gen := testGen(t)
	runtimes := runtimesWithSweepMemo(gen, capacity)
	var first string
	for round := 0; round < 10; round++ {
		s := run(o, gen, runtimes)
		if round == 0 {
			first = s.Counts()
		} else if s.Counts() != first {
			t.Fatalf("round %d:\n%s\nround 0:\n%s", round, s.Counts(), first)
		}
		for _, rt := range runtimes {
			if entries, sets := rt.worldSweeps.Len(); entries > capacity || sets > capacity/4 {
				t.Fatalf("round %d: a deck's memo holds %d entries and %d sets, bounds %d and %d",
					round, entries, sets, capacity, capacity/4)
			}
		}
	}
	var st world.SweepMemoStats
	for _, rt := range runtimes {
		st.Add(rt.worldSweeps.Stats())
	}
	if st.Evictions == 0 {
		t.Fatalf("sweep memos %+v: the rounds never reached the bound", st)
	}
}
