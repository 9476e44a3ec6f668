package radmine

import (
	"fmt"
	"time"

	"repro/internal/config"
	"repro/internal/env"
	"repro/internal/labs"
	"repro/internal/trace"
	"repro/internal/workflow"
)

// GenerateCorpus synthesises a RAD-style trace corpus: several safe
// workflow variants, each replayed across seeds on the traced testbed
// substrate (no RABIT attached — RAD predates RABIT). It returns the runs
// and the lab the traces came from.
func GenerateCorpus(seeds []int64) ([]Run, *config.Lab, error) {
	variants := []struct {
		name  string
		steps func() []workflow.Step
	}{
		{"solubility-ferry", workflow.Fig5Workflow},
		{"hotplate-routine", hotplateRoutine},
		{"centrifuge-routine", centrifugeRoutine},
		{"dose-then-solvent", doseThenSolvent},
	}
	var corpus []Run
	var lab *config.Lab
	for _, seed := range seeds {
		for _, v := range variants {
			l, err := labs.Testbed()
			if err != nil {
				return nil, nil, err
			}
			lab = l
			e, err := env.Build(l, env.StageTestbed, seed)
			if err != nil {
				return nil, nil, err
			}
			i := trace.NewInterceptor(nil, e)
			i.SetKeepRecords(true) // the corpus is the runs' records
			s := workflow.NewSession(i, l)
			s.Measure = e.MeasureSolubility
			if err := workflow.RunSteps(s, v.steps()); err != nil {
				return nil, nil, fmt.Errorf("radmine: corpus %s (seed %d): %w", v.name, seed, err)
			}
			corpus = append(corpus, Run{
				Name:    fmt.Sprintf("%s-%d", v.name, seed),
				Records: i.Records(),
			})
		}
	}
	return corpus, lab, nil
}

// hotplateRoutine ferries the pre-loaded vial_3 onto the hotplate, stirs
// at a safe setpoint, and returns it.
func hotplateRoutine() []workflow.Step {
	return []workflow.Step{
		{Name: "ned2-sleep", Run: func(s *workflow.Session) error {
			return s.Arm("ned2").GoSleep()
		}},
		{Name: "pick-vial3", Run: func(s *workflow.Session) error {
			return s.Arm("viperx").PickUpObject("grid_NE_safe", "grid_NE", "vial_3")
		}},
		{Name: "to-hotplate", Run: func(s *workflow.Session) error {
			return s.Arm("viperx").PlaceObject("hp_safe", "hp_place", "vial_3")
		}},
		{Name: "clear", Run: func(s *workflow.Session) error {
			return s.Arm("viperx").GoHome()
		}},
		{Name: "stir", Run: func(s *workflow.Session) error {
			hp := s.Device("hotplate")
			if err := hp.SetValue(120); err != nil {
				return err
			}
			if err := hp.Start(60 * time.Second); err != nil {
				return err
			}
			return hp.Stop()
		}},
		{Name: "retrieve", Run: func(s *workflow.Session) error {
			return s.Arm("viperx").PickUpObject("hp_safe", "hp_place", "vial_3")
		}},
		{Name: "return", Run: func(s *workflow.Session) error {
			return s.Arm("viperx").PlaceObject("grid_NE_safe", "grid_NE", "vial_3")
		}},
		{Name: "park", Run: func(s *workflow.Session) error {
			return s.Arm("viperx").GoHome()
		}},
	}
}

// centrifugeRoutine spins the capped, pre-loaded vial_3.
func centrifugeRoutine() []workflow.Step {
	return []workflow.Step{
		{Name: "ned2-sleep", Run: func(s *workflow.Session) error {
			return s.Arm("ned2").GoSleep()
		}},
		{Name: "cf-open", Run: func(s *workflow.Session) error {
			return s.Device("centrifuge").SetDoor(true)
		}},
		{Name: "load", Run: func(s *workflow.Session) error {
			a := s.Arm("viperx")
			if err := a.PickUpObject("grid_NE_safe", "grid_NE", "vial_3"); err != nil {
				return err
			}
			return a.PlaceObject("cf_safe", "cf_slot", "vial_3")
		}},
		{Name: "clear", Run: func(s *workflow.Session) error {
			return s.Arm("viperx").GoHome()
		}},
		{Name: "cf-close", Run: func(s *workflow.Session) error {
			return s.Device("centrifuge").SetDoor(false)
		}},
		{Name: "spin", Run: func(s *workflow.Session) error {
			c := s.Device("centrifuge")
			if err := c.SetValue(3000); err != nil {
				return err
			}
			if err := c.Start(30 * time.Second); err != nil {
				return err
			}
			return c.Stop()
		}},
		{Name: "cf-reopen", Run: func(s *workflow.Session) error {
			return s.Device("centrifuge").SetDoor(true)
		}},
		{Name: "unload", Run: func(s *workflow.Session) error {
			a := s.Arm("viperx")
			if err := a.PickUpObject("cf_safe", "cf_slot", "vial_3"); err != nil {
				return err
			}
			return a.PlaceObject("grid_NE_safe", "grid_NE", "vial_3")
		}},
		{Name: "cf-shut", Run: func(s *workflow.Session) error {
			return s.Device("centrifuge").SetDoor(false)
		}},
		{Name: "park", Run: func(s *workflow.Session) error {
			return s.Arm("viperx").GoHome()
		}},
	}
}

// doseThenSolvent runs the Fig. 5 ferry and then adds solvent to the
// freshly dosed vial — the solids-before-liquids discipline RAD exhibits.
func doseThenSolvent() []workflow.Step {
	steps := workflow.Fig5Workflow()
	// The ferry ends with Ned2 holding the dosed vial; have it put the
	// vial back before the pump tops it up.
	steps = append(steps,
		workflow.Step{Name: "ned2-return-vial", Run: func(s *workflow.Session) error {
			return s.Arm("ned2").PlaceObject("grid_NW_safe", "grid_NW", "vial_1")
		}},
		workflow.Step{Name: "solvent", Run: func(s *workflow.Session) error {
			return s.Device("pump").DoseLiquid("vial_1", 3)
		}},
	)
	return steps
}
