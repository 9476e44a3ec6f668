package radmine

import (
	"strings"
	"testing"

	"repro/internal/action"
	"repro/internal/trace"
)

func corpusForTest(t *testing.T) ([]Run, *Miner) {
	t.Helper()
	corpus, lab, err := GenerateCorpus([]int64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	return corpus, NewMiner(lab)
}

// TestMinedRulesCoverGeneralRules reproduces Section II-A: mining the
// RAD-style corpus yields the door, gripper, dosing, and threshold rules
// the paper reports extracting, plus the solids-before-liquids custom
// rule it calls out explicitly.
func TestMinedRulesCoverGeneralRules(t *testing.T) {
	corpus, miner := corpusForTest(t)
	mined := miner.Mine(corpus)

	wantMapped := []string{"general-1", "general-2", "general-4", "general-5", "general-9", "general-10", "general-11", "hein-1"}
	got := map[string]bool{}
	for _, m := range mined {
		got[m.MapsTo] = true
		if m.Support < miner.MinSupport {
			t.Errorf("%s reported below min support", m.Pattern)
		}
	}
	for _, want := range wantMapped {
		if !got[want] {
			t.Errorf("mining did not recover %s; mined: %v", want, mined)
		}
	}
}

// TestMinedThresholdsMatchUsage asserts rule-11 threshold learning: the
// learned limits equal the corpus's maximum observed setpoints.
func TestMinedThresholdsMatchUsage(t *testing.T) {
	corpus, miner := corpusForTest(t)
	mined := miner.Mine(corpus)
	want := map[string]float64{"hotplate": 120, "centrifuge": 3000}
	found := 0
	for _, m := range mined {
		if m.Pattern != "action-threshold" {
			continue
		}
		if w, ok := want[m.Device]; ok {
			found++
			if m.Threshold != w {
				t.Errorf("%s learned threshold %.0f, want %.0f", m.Device, m.Threshold, w)
			}
		}
	}
	if found != len(want) {
		t.Errorf("thresholds found for %d devices, want %d", found, len(want))
	}
}

// TestCounterExampleKillsInvariant: a trace violating an invariant must
// suppress the corresponding mined rule.
func TestCounterExampleKillsInvariant(t *testing.T) {
	corpus, miner := corpusForTest(t)
	// Append a run where an arm enters a device whose door never opened.
	corpus = append(corpus, Run{
		Name: "counter-example",
		Records: []trace.Record{
			{Outcome: "ok", Cmd: action.Command{
				Device: "viperx", Action: action.MoveRobotInside,
				InsideDevice: "dosing_device", TargetName: "dd_pickup",
			}},
		},
	})
	for _, m := range miner.Mine(corpus) {
		if m.MapsTo == "general-1" {
			t.Errorf("door-before-entry survived a counter-example")
		}
	}
}

// TestCorpusShape sanity-checks the generator.
func TestCorpusShape(t *testing.T) {
	corpus, _ := corpusForTest(t)
	if len(corpus) != 12 { // 4 variants × 3 seeds
		t.Fatalf("corpus has %d runs, want 12", len(corpus))
	}
	total := 0
	for _, r := range corpus {
		if len(r.Records) == 0 {
			t.Errorf("run %s is empty", r.Name)
		}
		for i, rec := range r.Records {
			if rec.Outcome != "ok" {
				t.Errorf("run %s contains a non-ok record: %+v", r.Name, rec)
			}
			if rec.Seq != i+1 { // the whole run, from its first command
				t.Errorf("run %s record %d has seq %d", r.Name, i, rec.Seq)
			}
		}
		total += len(r.Records)
	}
	if total < 300 {
		t.Errorf("corpus has only %d records; expected a few hundred", total)
	}
	if !strings.Contains(corpus[0].Name, "-1") {
		t.Errorf("run names should carry the seed: %s", corpus[0].Name)
	}
}
