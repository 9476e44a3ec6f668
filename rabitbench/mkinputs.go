package main

import (
	"errors"
	"fmt"
	"os"
	"time"

	"repro/internal/action"
	"repro/internal/core"
)

// candidatesPerSeed is how many targets each input seed draws before
// screening.
const candidatesPerSeed = 400

// screenCounts tallies why candidates were dropped.
type screenCounts struct {
	candidates int
	accepted   int
	// trajectory: the simulator rejected the motion (invalid trajectory).
	trajectory int
	// command: a rule rejected the command (invalid command).
	command int
	// struck: the checker accepted every command, then the ground-truth
	// world recorded damage — a miss by the checker.
	struck int
	// unreached: accepted and undamaged, but the tool did not reach the
	// target (e.g. a vendor's silent skip of an unreachable target).
	unreached int
	// other: any other error (a malfunction alert, an execution error).
	other int
}

func (c screenCounts) String() string {
	return fmt.Sprintf("candidates=%d accepted=%d dropped: trajectory_rejected=%d command_rejected=%d accepted_then_struck=%d unreached=%d other=%d",
		c.candidates, c.accepted, c.trajectory, c.command, c.struck, c.unreached, c.other)
}

// screen replays candidates in order on one stack, keeping each target
// whose commands all succeed. After a dropped target the stack is rebuilt
// and the accepted prefix replayed, so the accepted list replays on a
// fresh stack exactly as it was screened.
func screen(cands []deckTarget, noMotionCache bool) ([]deckTarget, screenCounts, error) {
	counts := screenCounts{candidates: len(cands)}
	var accepted []deckTarget
	st, err := newSystemStack(noMotionCache)
	if err != nil {
		return nil, counts, err
	}
	defer func() { st.close() }()
	prev := ""
	for _, t := range cands {
		if tryTarget(st, targetCommands(len(accepted), prev, t), &counts) {
			accepted = append(accepted, t)
			prev = t.Arm
			continue
		}
		st.close()
		if st, err = newSystemStack(noMotionCache); err != nil {
			return nil, counts, err
		}
		for _, cmd := range expandStream(accepted) {
			if err := st.do(cmd); err != nil {
				return nil, counts, fmt.Errorf("replaying the accepted prefix: %s: %w", cmd, err)
			}
		}
	}
	counts.accepted = len(accepted)
	return accepted, counts, nil
}

// tryTarget runs one target's commands; on a failure it counts why in c
// and returns false.
func tryTarget(st *deckStack, cmds []action.Command, c *screenCounts) bool {
	damage := len(st.world.Events())
	for _, cmd := range cmds {
		err := st.do(cmd)
		var al *core.Alert
		switch {
		case len(st.world.Events()) > damage:
			c.struck++
		case errors.As(err, &al) && al.Kind == core.AlertInvalidTrajectory:
			c.trajectory++
		case errors.As(err, &al) && al.Kind == core.AlertInvalidCommand:
			c.command++
		case err != nil:
			c.other++
		case reachError(st.lab, st.world, cmd) != nil:
			c.unreached++
		default:
			continue
		}
		return false
	}
	return true
}

// makeDeckInputs screens the candidates of seeds 1..inputSeeds, with
// the motion cache on (the committed stream) and off (for comparison),
// prints both screen reports, checks the accepted stream replays cleanly
// on a fresh stack, and writes it under dir.
func makeDeckInputs(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for seed := int64(1); seed <= inputSeeds; seed++ {
		cands := candidateTargets(seed, candidatesPerSeed)
		accepted, cached, err := screen(cands, false)
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		_, uncached, err := screen(cands, true)
		if err != nil {
			return fmt.Errorf("seed %d (no motion cache): %w", seed, err)
		}
		st, err := newSystemStack(false)
		if err != nil {
			return err
		}
		cmds := expandStream(accepted)
		_, failed, check := deckPass(st, cmds, new([]time.Duration))
		st.close()
		if failed || check != nil {
			return fmt.Errorf("seed %d: screened stream does not replay cleanly: %v", seed, check)
		}
		report := fmt.Sprintf("deck_motion input seed %d: %d candidates, %d commands after screening\nmotion cache on:  %s\nmotion cache off: %s\n",
			seed, len(cands), len(cmds), cached, uncached)
		fmt.Print(report)
		if err := writeStream(streamPath(dir, seed), accepted, report); err != nil {
			return err
		}
	}
	return nil
}
