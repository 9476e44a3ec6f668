package rabit_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	rabit "repro"
	"repro/internal/action"
	"repro/internal/core"
	"repro/internal/geom"
)

// freshDeckTargets draws n seeded testbed targets in blocks of eight per
// arm, alternating viperx and ned2, each in an annular shell around its
// arm base inside reach (base frame, 0.1 mm grid).
func freshDeckTargets(seed int64, n int) []action.Command {
	rng := rand.New(rand.NewSource(seed))
	q := func(v float64) float64 { return math.Round(v*1e4) / 1e4 }
	out := make([]action.Command, 0, n)
	for i := 0; i < n; i++ {
		arm := "viperx"
		rMin, rMax, zMin, zMax := 0.25, 0.50, 0.15, 0.40
		if (i/8)%2 == 1 {
			arm = "ned2"
			rMin, rMax, zMin, zMax = 0.18, 0.36, 0.12, 0.32
		}
		r := rMin + rng.Float64()*(rMax-rMin)
		th := rng.Float64() * 2 * math.Pi
		z := zMin + rng.Float64()*(zMax-zMin)
		out = append(out, action.Command{Device: arm, Action: action.MoveRobot,
			Target: geom.V(q(r*math.Cos(th)), q(r*math.Sin(th)), q(z))})
	}
	return out
}

// targetBlock returns the commands one target contributes: a sleep/home
// hand-off when the deck passes from prev to the target's arm (time
// multiplexing keeps the idle arm asleep; prev "" puts the other arm to
// sleep), the move, and a move home.
func targetBlock(prev string, m action.Command) []action.Command {
	var out []action.Command
	switch {
	case prev == "":
		other := "ned2"
		if m.Device == other {
			other = "viperx"
		}
		out = append(out, action.Command{Device: other, Action: action.MoveSleep})
	case prev != m.Device:
		out = append(out,
			action.Command{Device: prev, Action: action.MoveSleep},
			action.Command{Device: m.Device, Action: action.MoveHome})
	}
	return append(out, m, action.Command{Device: m.Device, Action: action.MoveHome})
}

// commandResult is everything a caller or the deck can observe of one
// command: the error text, the alert kind, and the ground-truth world's
// event log after it.
type commandResult struct {
	err    string
	kind   core.AlertKind
	events string
}

func runCommand(sys *rabit.System, cmd action.Command) commandResult {
	var r commandResult
	if err := sys.Interceptor.Do(cmd); err != nil {
		r.err = err.Error()
		if al, ok := rabit.AsAlert(err); ok {
			r.kind = al.Kind
		}
	}
	r.events = fmt.Sprint(sys.Env.World().Events())
	return r
}

// TestMotionCacheVerdictInvariance: the motion caches (IK plan cache,
// verdict cache) may change how fast a verdict comes, never what it is.
// One seeded stream of fresh targets — including trajectory rejections
// and moves that strike the deck — drives two testbed Systems with the
// Extended Simulator, one with NoMotionCache, and every command must end
// the same way on both: same error, same alert kind, same world events.
// A plan cache that seeds a miss from a neighbouring solution fails this:
// the simulator then checks one IK branch while the world moves along
// another.
func TestMotionCacheVerdictInvariance(t *testing.T) {
	build := func(noCache bool) *rabit.System {
		sys, err := rabit.NewTestbed(rabit.Options{ExtendedSimulator: true, NoMotionCache: noCache})
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	cached, plain := build(false), build(true)
	defer func() { cached.Close(); plain.Close() }()

	var accepted, rejected, struck, n int
	prev := ""
	for _, move := range freshDeckTargets(1, 320) {
		cmds := targetBlock(prev, move)
		prev = move.Device
		for _, cmd := range cmds {
			n++
			rc, rp := runCommand(cached, cmd), runCommand(plain, cmd)
			if rc != rp {
				t.Fatalf("command %d (%s): motion cache on %+v, off %+v", n, cmd, rc, rp)
			}
			if rc.err == "" {
				if cmd == move {
					accepted++
				}
				continue
			}
			if rc.events == "[]" {
				// An alert stops both engines; restarting re-reads the world.
				rejected++
				cached.Engine.Start()
				plain.Engine.Start()
			} else {
				// The deck was struck: go on with fresh Systems.
				struck++
				cached.Close()
				plain.Close()
				cached, plain = build(false), build(true)
				prev = ""
			}
			break
		}
	}
	t.Logf("%d commands: %d moves accepted, %d rejected, %d struck the deck", n, accepted, rejected, struck)
	// Guard against a vacuous pass: the stream must exercise both verdicts.
	if accepted < 200 || rejected < 20 {
		t.Fatalf("stream exercised too little: %d accepted moves, %d rejections", accepted, rejected)
	}
}
