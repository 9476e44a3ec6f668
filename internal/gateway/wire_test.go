package gateway

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	rabit "repro"
	"repro/internal/action"
	"repro/internal/config"
	"repro/internal/geom"
	"repro/internal/labs"
	"repro/internal/obs"
)

// commandsKeys counts the top-level keys of a JSON object that name the
// batch's commands field (encoding/json matches field names
// case-insensitively); -1 when data does not open with an object.
func commandsKeys(data []byte) int {
	dec := json.NewDecoder(bytes.NewReader(data))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return -1
	}
	n := 0
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return n
		}
		if key, _ := tok.(string); strings.EqualFold(key, "commands") {
			n++
		}
		var skip json.RawMessage
		if dec.Decode(&skip) != nil {
			return n
		}
	}
	return n
}

// FuzzDecodeBatch checks decodeBatch against the plain json.Decoder it
// replaces: the two accept the same batches, agree on their commands,
// and decodeBatch refuses exactly the batches over maxBatchCommands.
// The seed corpus runs under plain go test.
func FuzzDecodeBatch(f *testing.F) {
	for _, seed := range []string{
		`{"commands":[{"device":"hp00","action":"set_action_value","value":60},{"device":"hp00","action":"start_action"}]}`,
		`{"commands":[{"device":"arm","action":"move_robot","target":{"x":0.1,"y":0.2,"z":0.3},"target_name":"grid"}]}`,
		`{"commands":null}`,
		`{"commands":[]}`,
		`{"Commands":[{"device":"d"}],"extra":{"nested":[1,2,3]}}`,
		`{"commands":[{"device":"a"}],"commands":[{"device":"b"}]}`,
		`{"commands":[null,{}]}`,
		`null`,
		`[]`,
		`{"commands":5}`,
		`{"commands":[{"device":7}]}`,
		`{"commands":[{"seq":1}]} trailing`,
		`{"commands":[`,
		`{"commands":[` + strings.Repeat(`{},`, maxBatchCommands) + `{}]}`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := decodeBatch(bytes.NewReader(data))
		var want CommandBatch
		wantErr := json.NewDecoder(bytes.NewReader(data)).Decode(&want)
		switch {
		case wantErr != nil:
			if err == nil {
				t.Fatalf("decodeBatch accepted %q, json.Decoder: %v", data, wantErr)
			}
		case len(want.Commands) > maxBatchCommands:
			if !errors.Is(err, errBatchTooLarge) {
				t.Fatalf("batch of %d commands: err %v, want errBatchTooLarge", len(want.Commands), err)
			}
		case err != nil:
			t.Fatalf("decodeBatch refused %q: %v", data, err)
		case len(got.Commands) != len(want.Commands):
			t.Fatalf("decodeBatch read %d commands, json.Decoder %d", len(got.Commands), len(want.Commands))
		case commandsKeys(data) <= 1 && !reflect.DeepEqual(got, want):
			// (A repeated commands key makes encoding/json merge the
			// second array into the first's elements; decodeBatch keeps
			// only the last array, so only single-key batches compare.)
			t.Fatalf("decodeBatch %+v, json.Decoder %+v", got, want)
		}
	})
}

// FuzzCompileInlineSpec drives attacker-controlled inline lab specs
// through what session creation runs on them: the gateway's spec
// resolution (config.Parse), then a tenant build with the Extended
// Simulator (compile, environment, rulebase, engine), then one cold arm
// move per arm so the simulator builds its deck BVH and sweeps it. Each
// step may refuse a spec but must never panic. The seed corpus — the
// three named labs and a hotplate fleet like the benchmark's — runs
// under plain go test.
func FuzzCompileInlineSpec(f *testing.F) {
	for _, spec := range []*config.LabSpec{
		labs.TestbedSpec(), labs.HeinProductionSpec(), labs.BerlinguetteSpec(), fleetSpec("fuzz-fleet", 2),
	} {
		raw, err := json.Marshal(spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	for _, seed := range []string{
		`{}`,
		`{"lab":"x"}`,
		`{"lab":"x","devices":[{"id":"d","type":"action_device"}]}`,
		`{"lab":"x","devices":[{"id":"d","cuboid":{"min":{"x":1},"max":{"x":-1}}}]}`,
		`{"lab":"x","unknown":1}`,
		`null`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		spec, err := resolveSpec("", raw)
		if err != nil {
			return
		}
		sys, err := rabit.New(spec, rabit.Options{ExtendedSimulator: true, ObsGroup: obs.NewGroup()})
		if err != nil {
			return
		}
		defer sys.Close()
		for _, arm := range sys.Lab.ArmIDs() {
			tcp, err := sys.Simulator.ArmTCP(arm)
			if err != nil {
				continue
			}
			cmd := action.Command{Device: arm, Action: action.MoveRobot, Target: tcp.Add(geom.V(0.01, 0, 0))}
			_ = sys.Simulator.ValidTrajectory(cmd, sys.Engine.Model())
		}
	})
}
