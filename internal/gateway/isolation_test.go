package gateway

import (
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	rabit "repro"
	"repro/internal/action"
	"repro/internal/core"
	"repro/internal/rules"
)

// panickySetpoint is the setpoint that trips the panicking custom rule.
const panickySetpoint = 66

// withPanickyRule replaces lab "panicky"'s engine with one whose
// rulebase adds a custom rule that panics on panickySetpoint. The rule
// reads only the command's own device, so the panic lands on the
// sharded path with the engine's locks held. Building lab "explodes"
// panics outright.
func withPanickyRule(lab string, sys *rabit.System) {
	sys.Env.SetPacing(1000)
	switch lab {
	case "explodes":
		panic("tenant build exploded")
	case "panicky":
	default:
		return
	}
	boom := &rules.Rule{
		ID: "boom", Scope: rules.ScopeCustom, Number: 1,
		Description: "panics on one setpoint",
		Reads:       rules.ReadsCommand,
		Check: func(ctx *rules.EvalContext) string {
			if ctx.Cmd.Action == action.SetActionValue && ctx.Cmd.Value == panickySetpoint {
				panic("custom rule boom")
			}
			return ""
		},
	}
	rb, err := rules.NewRulebase(sys.Lab, rules.Config{
		Generation: rules.GenModified, Multiplex: rules.MultiplexTime,
	}, boom)
	if err != nil {
		panic(err)
	}
	sys.Engine = core.New(rb, sys.Env, core.WithInitialModel(sys.Lab.InitialModelState()))
	sys.Engine.Start()
}

// heatCycle is one safe batch on hp00.
func heatCycle(setpoint float64) []action.Command {
	return []action.Command{
		{Device: "hp00", Action: action.SetActionValue, Value: setpoint},
		{Device: "hp00", Action: action.StartAction, Duration: time.Second},
		{Device: "hp00", Action: action.ReadStatus},
		{Device: "hp00", Action: action.StopAction},
	}
}

// A panic in one tenant's custom rule fails that tenant only: the
// command in flight gets an error verdict (never ok), later batches and
// sessions on the lab get 500, the panic is counted per tenant, and a
// second tenant keeps serving ok verdicts while it happens. A panic
// while a tenant builds fails the session request, not the gateway.
func TestGatewayTenantPanicIsolation(t *testing.T) {
	gw, srv := newTestGateway(t, Options{ConfigureSystem: withPanickyRule})
	steady := createSession(t, srv, CreateSessionRequest{Spec: rawSpec(t, fleetSpec("steady", 1))})
	panicky := createSession(t, srv, CreateSessionRequest{Spec: rawSpec(t, fleetSpec("panicky", 1))})

	// The steady tenant streams batches while the other one panics.
	steadyCycles := func(n int) error {
		for b := 0; b < n; b++ {
			got, status, err := sendBatch(srv, steady.id(), heatCycle(50))
			if err != nil {
				return err
			}
			if status != http.StatusOK || len(got) != 4 {
				return fmt.Errorf("steady batch %d: status %d, %d verdicts", b, status, len(got))
			}
			for _, r := range got {
				if r.Outcome != OutcomeOK {
					return fmt.Errorf("steady verdict %d: %s: %s", r.Seq, r.Outcome, r.Detail)
				}
			}
		}
		return nil
	}
	var wg sync.WaitGroup
	var steadyErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		steadyErr = steadyCycles(20)
	}()

	got, status := postBatch(t, srv, panicky.id(), []action.Command{
		{Device: "hp00", Action: action.SetActionValue, Value: 50},
		{Device: "hp00", Action: action.SetActionValue, Value: panickySetpoint},
		{Device: "hp00", Action: action.ReadStatus}, // never reached
	})
	if status != http.StatusOK || len(got) != 2 {
		t.Fatalf("panicking batch: status %d, verdicts %+v, want 2", status, got)
	}
	if got[0].Outcome != OutcomeOK {
		t.Fatalf("verdict before the panic: %+v", got[0])
	}
	if got[1].Outcome == OutcomeOK || !strings.Contains(got[1].Detail, "custom rule boom") {
		t.Fatalf("panicking command's verdict %+v, want a failed verdict citing the panic", got[1])
	}
	if _, status := postBatch(t, srv, panicky.id(), heatCycle(50)); status != http.StatusInternalServerError {
		t.Fatalf("batch on the failed tenant: status %d, want 500", status)
	}
	if _, status := tryCreateSession(t, srv, CreateSessionRequest{Spec: rawSpec(t, fleetSpec("panicky", 1))}); status != http.StatusInternalServerError {
		t.Fatalf("session on the failed tenant: status %d, want 500", status)
	}
	if _, status := tryCreateSession(t, srv, CreateSessionRequest{Spec: rawSpec(t, fleetSpec("explodes", 1))}); status != http.StatusInternalServerError {
		t.Fatalf("session whose tenant build panics: status %d, want 500", status)
	}
	if info, _ := getSessionInfo(t, srv, panicky.id()); info.Commands != 2 {
		t.Errorf("panicky session counted %d commands, want 2", info.Commands)
	}

	wg.Wait()
	if steadyErr != nil {
		t.Fatal(steadyErr)
	}
	if err := steadyCycles(2); err != nil { // and after the panic
		t.Fatal(err)
	}

	for _, ts := range gw.Tenants() {
		switch ts.Lab {
		case "steady":
			if !ts.Ready || ts.Failed != "" {
				t.Errorf("steady tenant %+v, want ready", ts)
			}
		case "panicky":
			if ts.Ready || !strings.Contains(ts.Failed, "custom rule boom") {
				t.Errorf("panicky tenant %+v, want failed and unready", ts)
			}
		default:
			t.Errorf("unexpected tenant %+v", ts)
		}
	}
	text := scrapeOM(t, srv.URL)
	for _, want := range []string{
		`rabit_gateway_panics_total{reg="gateway",tenant="panicky"} 1`,
		`rabit_gateway_panics_total{reg="gateway",tenant="explodes"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %s", want)
		}
	}
	if strings.Contains(text, `rabit_gateway_panics_total{reg="gateway",tenant="steady"}`) {
		t.Error("panic counted against the steady tenant")
	}
}

// A gateway session keeps no trace records however many commands it
// runs, while its session info still counts every command.
func TestGatewaySessionKeepsNoRecords(t *testing.T) {
	const batches, cycles = 100, 10 // 4000 commands
	gw, srv := newTestGateway(t, Options{ConfigureSystem: func(_ string, sys *rabit.System) {
		sys.Env.SetPacing(0) // unpaced: the test counts commands, not time
	}})
	info := createSession(t, srv, CreateSessionRequest{Spec: rawSpec(t, fleetSpec("no-records", 1))})
	for b := 0; b < batches; b++ {
		var cmds []action.Command
		for c := 0; c < cycles; c++ {
			cmds = append(cmds, heatCycle(float64(40+(b+c)%60))...)
		}
		got, status := postBatch(t, srv, info.id(), cmds)
		if status != http.StatusOK || len(got) != len(cmds) || got[len(got)-1].Outcome != OutcomeOK {
			t.Fatalf("batch %d: status %d, %d verdicts for %d commands", b, status, len(got), len(cmds))
		}
	}
	s, ok := gw.lookup(info.id())
	if !ok {
		t.Fatal("session vanished")
	}
	if n := len(s.ic.Records()); n != 0 {
		t.Fatalf("gateway session kept %d trace records, want none", n)
	}
	if got, _ := getSessionInfo(t, srv, info.id()); got.Commands != batches*cycles*4 {
		t.Fatalf("session info counts %d commands, want %d", got.Commands, batches*cycles*4)
	}
}
