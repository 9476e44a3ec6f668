package rabit_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	rabit "repro"
	"repro/internal/labs"
	"repro/internal/obs"
)

func TestFacadeDefaults(t *testing.T) {
	sys, err := rabit.NewTestbed(rabit.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Engine == nil {
		t.Fatal("default system should be protected")
	}
	if sys.Simulator != nil {
		t.Fatal("simulator should be opt-in")
	}
	if err := rabit.RunSteps(sys.Session, rabit.Fig5Workflow()); err != nil {
		t.Fatalf("safe workflow failed: %v", err)
	}
	if len(sys.Alerts()) != 0 || sys.Stopped() != nil {
		t.Errorf("false positives: %v", sys.Alerts())
	}
	if sys.DamageCost() != 0 {
		t.Error("safe workflow cost money")
	}
	// Trace keeps the whole run: one record per command, seqs 1..n.
	tr := sys.Trace()
	if len(tr) == 0 {
		t.Error("no trace recorded")
	}
	if ok := sys.ObsSnapshot().Counter(obs.PrefixOutcome + "ok"); int64(len(tr)) != ok {
		t.Errorf("trace holds %d records for %d ok commands", len(tr), ok)
	}
	for i, r := range tr {
		if r.Seq != i+1 {
			t.Fatalf("trace record %d has seq %d", i, r.Seq)
		}
	}
}

func TestFacadeUnprotected(t *testing.T) {
	sys, err := rabit.NewTestbed(rabit.Options{Unprotected: true})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Engine != nil {
		t.Fatal("unprotected system should have no engine")
	}
	if sys.Alerts() != nil || sys.Stopped() != nil {
		t.Error("unprotected accessors should be empty")
	}
}

func TestFacadeAlertFlow(t *testing.T) {
	var failSafe []rabit.Alert
	sys, err := rabit.NewTestbed(rabit.Options{
		FailSafe: func(a rabit.Alert) { failSafe = append(failSafe, a) },
	})
	if err != nil {
		t.Fatal(err)
	}
	// Drive into the closed dosing device.
	err = sys.Session.Arm("viperx").GoToLocation("dd_safe_height")
	if err == nil {
		t.Fatal("unsafe move accepted")
	}
	alert, ok := rabit.AsAlert(err)
	if !ok {
		t.Fatalf("want alert, got %v", err)
	}
	if !strings.Contains(alert.Error(), "general-1") {
		t.Errorf("alert should cite rule 1: %v", alert.Error())
	}
	if len(failSafe) != 1 {
		t.Errorf("fail-safe hook calls = %d", len(failSafe))
	}
	if sys.Stopped() == nil {
		t.Error("experiment should be stopped")
	}
}

func TestFacadeFromJSONFile(t *testing.T) {
	dir := t.TempDir()
	path, err := labs.WriteJSON(labs.TestbedSpec(), dir)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := rabit.NewFromFile(path, rabit.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(sys.Lab.ArmIDs()); got != 2 {
		t.Errorf("arms = %d", got)
	}
	// A corrupted file is rejected with a diagnostic.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := strings.Replace(string(data), `"z": 0.16`, `"z": -0.16`, 1)
	badPath := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(badPath, []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := rabit.NewFromFile(badPath, rabit.Options{}); err == nil {
		t.Fatal("sign-flipped config accepted")
	}
}

func TestFacadeAllDecks(t *testing.T) {
	decks := []func(rabit.Options) (*rabit.System, error){
		rabit.NewTestbed, rabit.NewHeinProduction, rabit.NewBerlinguette,
	}
	for i, build := range decks {
		sys, err := build(rabit.Options{ExtendedSimulator: true})
		if err != nil {
			t.Fatalf("deck %d: %v", i, err)
		}
		if sys.Simulator == nil {
			t.Errorf("deck %d: simulator missing", i)
		}
	}
}
