package gateway

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	rabit "repro"
	"repro/internal/action"
	"repro/internal/config"
	"repro/internal/core"
)

// fleetSpec is a synthetic deck of n independent hotplates (no arms,
// no shared doors), the same shape the throughput harness uses.
func fleetSpec(lab string, n int) *config.LabSpec {
	spec := &config.LabSpec{Lab: lab, FloorZ: 0}
	for i := 0; i < n; i++ {
		x := float64(i) * 0.3
		spec.Devices = append(spec.Devices, config.DeviceSpec{
			ID:   fmt.Sprintf("hp%02d", i),
			Type: "action_device", Kind: "hotplate", ClassName: "IKAHotplate",
			Cuboid: config.BoxSpec{
				Min: config.Vec{X: x, Y: 0, Z: 0},
				Max: config.Vec{X: x + 0.2, Y: 0.2, Z: 0.15},
			},
			ActionThreshold: 150,
			MaxSafeValue:    340,
		})
	}
	return spec
}

func rawSpec(t *testing.T, spec *config.LabSpec) json.RawMessage {
	t.Helper()
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// newTestGateway boots a gateway on an httptest server with fast
// pacing so timed actions finish quickly.
func newTestGateway(t *testing.T, opts Options) (*Gateway, *httptest.Server) {
	t.Helper()
	if opts.ConfigureSystem == nil {
		opts.ConfigureSystem = func(_ string, sys *rabit.System) {
			sys.Env.SetPacing(1000)
		}
	}
	gw := New(opts)
	srv := httptest.NewServer(gw.Handler())
	t.Cleanup(func() {
		srv.Close()
		gw.Close()
	})
	return gw, srv
}

func createSession(t *testing.T, srv *httptest.Server, req CreateSessionRequest) SessionInfo {
	t.Helper()
	info, status := tryCreateSession(t, srv, req)
	if status != http.StatusCreated {
		t.Fatalf("create session: status %d", status)
	}
	return info
}

func tryCreateSession(t *testing.T, srv *httptest.Server, req CreateSessionRequest) (SessionInfo, int) {
	t.Helper()
	raw, _ := json.Marshal(req)
	resp, err := http.Post(srv.URL+"/v1/sessions", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info SessionInfo
	_ = json.NewDecoder(resp.Body).Decode(&info)
	return info, resp.StatusCode
}

// postBatch sends a command batch and decodes the NDJSON verdict
// stream. Non-200 responses return the status with no results.
func postBatch(t *testing.T, srv *httptest.Server, session string, cmds []action.Command) ([]CommandResult, int) {
	t.Helper()
	out, status, err := sendBatch(srv, session, cmds)
	if err != nil {
		t.Fatal(err)
	}
	return out, status
}

// sendBatch is postBatch for goroutines other than the test's own: it
// returns transport and decoding failures instead of failing the test.
func sendBatch(srv *httptest.Server, session string, cmds []action.Command) ([]CommandResult, int, error) {
	raw, _ := json.Marshal(CommandBatch{Commands: cmds})
	resp, err := http.Post(srv.URL+"/v1/sessions/"+session+"/commands",
		"application/json", bytes.NewReader(raw))
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, resp.StatusCode, nil
	}
	var out []CommandResult
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var res CommandResult
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			return nil, resp.StatusCode, fmt.Errorf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		out = append(out, res)
	}
	return out, resp.StatusCode, sc.Err()
}

// postRaw posts a raw body and returns the response status.
func postRaw(t *testing.T, srv *httptest.Server, path string, body []byte) int {
	t.Helper()
	resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// getSessionInfo fetches a session's info and the response status.
func getSessionInfo(t *testing.T, srv *httptest.Server, session string) (SessionInfo, int) {
	t.Helper()
	resp, err := http.Get(srv.URL + "/v1/sessions/" + session)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info SessionInfo
	_ = json.NewDecoder(resp.Body).Decode(&info)
	return info, resp.StatusCode
}

// parityScript exercises ok, blocked, and post-blocked-rejection
// verdicts: a safe heat cycle, then a setpoint over the hotplate's
// MaxSafeValue.
func parityScript() []action.Command {
	return []action.Command{
		{Device: "hp00", Action: action.SetActionValue, Value: 50},
		{Device: "hp00", Action: action.StartAction, Duration: time.Second},
		{Device: "hp00", Action: action.ReadStatus},
		{Device: "hp00", Action: action.StopAction},
		{Device: "hp00", Action: action.SetActionValue, Value: 400}, // > MaxSafeValue
		{Device: "hp00", Action: action.ReadStatus},                 // never reached
	}
}

// The gateway must produce verdicts identical to an embedded System
// running the same script: same outcomes in the same order, same alert
// kind on the blocked command.
func TestGatewayEmbeddedParity(t *testing.T) {
	script := parityScript()

	// Embedded: the same spec, same options, in-process interceptor.
	sys, err := rabit.New(fleetSpec("parity-embedded", 1), rabit.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	sys.Env.SetPacing(1000)
	var embedded []CommandResult
	for i, cmd := range script {
		err := sys.Interceptor.Do(cmd)
		embedded = append(embedded, result(cmd, i+1, err))
		if err != nil {
			break // script halts at the first alert
		}
	}

	_, srv := newTestGateway(t, Options{})
	info := createSession(t, srv, CreateSessionRequest{
		Spec: rawSpec(t, fleetSpec("parity-gateway", 1)),
	})
	got, _ := postBatch(t, srv, info.SessionID, script)

	if len(got) != len(embedded) {
		t.Fatalf("gateway streamed %d verdicts, embedded produced %d", len(got), len(embedded))
	}
	for i := range got {
		if got[i].Outcome != embedded[i].Outcome {
			t.Fatalf("verdict %d: gateway %q, embedded %q", i, got[i].Outcome, embedded[i].Outcome)
		}
		if got[i].Seq != embedded[i].Seq {
			t.Fatalf("verdict %d: gateway seq %d, embedded seq %d", i, got[i].Seq, embedded[i].Seq)
		}
		ga, ea := got[i].Alert, embedded[i].Alert
		if (ga == nil) != (ea == nil) {
			t.Fatalf("verdict %d: alert presence differs (gateway %v, embedded %v)", i, ga, ea)
		}
		if ga != nil && ga.Kind != ea.Kind {
			t.Fatalf("verdict %d: alert kind gateway %q, embedded %q", i, ga.Kind, ea.Kind)
		}
	}
	if got[len(got)-1].Outcome != OutcomeBlocked {
		t.Fatalf("final verdict %q, want blocked (the over-max setpoint)", got[len(got)-1].Outcome)
	}
	if k := got[len(got)-1].Alert.Kind; k != core.AlertInvalidCommand.Slug() {
		t.Fatalf("alert kind %q, want %q", k, core.AlertInvalidCommand.Slug())
	}
}

// Four lab tenants, several sessions each, all streaming concurrently:
// every verdict lands ok, tenants stay isolated, and the pool reports
// all four labs. Each lab also runs a door session whose OpenDoor takes
// the engine's sharded path and whose CloseDoor takes the global path,
// so the hotplate sessions' sharded cycles interleave with global
// checks and commits on the same engine. Run under -race this is the
// multi-tenant soak.
func TestGatewayConcurrentTenantSessions(t *testing.T) {
	const labsN, hotplates, commands = 4, 3, 24
	const sessionsPerLab = hotplates + 1
	gw, srv := newTestGateway(t, Options{QueueDepth: sessionsPerLab})

	type sess struct {
		id     string
		device string
	}
	var sessions []sess
	for l := 0; l < labsN; l++ {
		spec := fleetSpec(fmt.Sprintf("conc-%02d", l), hotplates)
		spec.Devices = append(spec.Devices, config.DeviceSpec{
			ID: "doser", Type: "dosing_system", Kind: "dosing", ClassName: "MTQuantos",
			Door: config.DoorSpec{Present: true, Side: "y-"},
			Cuboid: config.BoxSpec{
				Min: config.Vec{X: 0, Y: 0.5, Z: 0},
				Max: config.Vec{X: 0.2, Y: 0.7, Z: 0.3},
			},
			Interior: &config.BoxSpec{
				Min: config.Vec{X: 0.03, Y: 0.53, Z: 0.03},
				Max: config.Vec{X: 0.17, Y: 0.67, Z: 0.27},
			},
		})
		for k := 0; k < sessionsPerLab; k++ {
			device := "doser"
			if k < hotplates {
				device = fmt.Sprintf("hp%02d", k)
			}
			info := createSession(t, srv, CreateSessionRequest{Spec: rawSpec(t, spec)})
			sessions = append(sessions, sess{id: info.SessionID, device: device})
		}
	}

	var wg sync.WaitGroup
	errs := make([]error, len(sessions))
	for i, s := range sessions {
		wg.Add(1)
		go func(i int, s sess) {
			defer wg.Done()
			var cmds []action.Command
			for c := 0; c < commands/4; c++ {
				if s.device == "doser" {
					cmds = append(cmds,
						action.Command{Device: s.device, Action: action.OpenDoor},
						action.Command{Device: s.device, Action: action.CloseDoor},
						action.Command{Device: s.device, Action: action.OpenDoor},
						action.Command{Device: s.device, Action: action.CloseDoor},
					)
					continue
				}
				cmds = append(cmds,
					action.Command{Device: s.device, Action: action.SetActionValue, Value: float64(40 + c%20*4 + i%4)},
					action.Command{Device: s.device, Action: action.StartAction, Duration: time.Second},
					action.Command{Device: s.device, Action: action.ReadStatus},
					action.Command{Device: s.device, Action: action.StopAction},
				)
			}
			got, status := postBatch(t, srv, s.id, cmds)
			if status != http.StatusOK {
				errs[i] = fmt.Errorf("status %d", status)
				return
			}
			if len(got) != len(cmds) {
				errs[i] = fmt.Errorf("%d of %d verdicts", len(got), len(cmds))
				return
			}
			for _, r := range got {
				if r.Outcome != OutcomeOK {
					errs[i] = fmt.Errorf("verdict %d: %s: %s", r.Seq, r.Outcome, r.Detail)
					return
				}
			}
		}(i, s)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("session %d: %v", i, err)
		}
	}
	// Session info counts the commands each session has run.
	for i, s := range sessions {
		if info, status := getSessionInfo(t, srv, s.id); status != http.StatusOK || info.Commands != commands {
			t.Errorf("session %d info: status %d, %d commands, want %d", i, status, info.Commands, commands)
		}
	}

	tenants := gw.Tenants()
	if len(tenants) != labsN {
		t.Fatalf("pool has %d tenants, want %d", len(tenants), labsN)
	}
	for _, ts := range tenants {
		if ts.Sessions != sessionsPerLab || !ts.Ready || ts.Alerts != 0 {
			t.Fatalf("tenant %+v, want %d sessions, ready, no alerts", ts, sessionsPerLab)
		}
	}
}

// A full per-tenant admission queue pushes back with 429 + Retry-After
// instead of queueing unboundedly; a second tenant is unaffected.
func TestGatewayBackpressure(t *testing.T) {
	// Slow pacing so the occupying batch holds its admission token long
	// enough for the test to observe the 429.
	gw, srv := newTestGateway(t, Options{
		QueueDepth: 1,
		ConfigureSystem: func(_ string, sys *rabit.System) {
			sys.Env.SetPacing(20) // 1s action ≈ 50ms real
		},
	})
	spec := fleetSpec("busy-lab", 2)
	s1 := createSession(t, srv, CreateSessionRequest{Spec: rawSpec(t, spec)})
	s2 := createSession(t, srv, CreateSessionRequest{Spec: rawSpec(t, spec)})
	other := createSession(t, srv, CreateSessionRequest{Spec: rawSpec(t, fleetSpec("calm-lab", 1))})

	slow := []action.Command{
		{Device: "hp00", Action: action.SetActionValue, Value: 60},
		{Device: "hp00", Action: action.StartAction, Duration: 2 * time.Second},
		{Device: "hp00", Action: action.StopAction},
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if got, status := postBatch(t, srv, s1.id(), slow); status != http.StatusOK || len(got) != len(slow) {
			t.Errorf("occupying batch: status %d, %d verdicts", status, len(got))
		}
	}()

	// Wait until the occupying batch holds the tenant's only admission
	// token, then a second batch on the same lab must bounce with 429.
	deadline := time.Now().Add(5 * time.Second)
	for busy := tenantOf(gw, "busy-lab"); len(busy.sem) == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the occupying batch never took the admission token")
		}
		time.Sleep(time.Millisecond)
	}
	var status int
	for time.Now().Before(deadline) {
		raw, _ := json.Marshal(CommandBatch{Commands: []action.Command{
			{Device: "hp01", Action: action.ReadStatus},
		}})
		resp, err := http.Post(srv.URL+"/v1/sessions/"+s2.id()+"/commands",
			"application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		status = resp.StatusCode
		retryAfter := resp.Header.Get("Retry-After")
		resp.Body.Close()
		if status == http.StatusTooManyRequests {
			if retryAfter == "" {
				t.Fatal("429 without Retry-After")
			}
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if status != http.StatusTooManyRequests {
		t.Fatalf("never observed 429 on the saturated lab (last status %d)", status)
	}

	// The other lab's queue is independent: it serves fine meanwhile.
	if got, st := postBatch(t, srv, other.id(), []action.Command{
		{Device: "hp00", Action: action.ReadStatus},
	}); st != http.StatusOK || len(got) != 1 || got[0].Outcome != OutcomeOK {
		t.Fatalf("calm lab affected by busy lab: status %d, verdicts %v", st, got)
	}
	<-done
}

// id lets SessionInfo be used tersely in tests.
func (s SessionInfo) id() string { return s.SessionID }

// Drain must finish in-flight batches (no dropped verdicts), reject
// new sessions and batches with 503/ErrDraining, and flip /readyz —
// all before the listener would close.
func TestGatewayDrainFinishesInFlight(t *testing.T) {
	gw, srv := newTestGateway(t, Options{
		ConfigureSystem: func(_ string, sys *rabit.System) {
			sys.Env.SetPacing(50) // 1s action = 20ms real: a real in-flight window
		},
	})
	info := createSession(t, srv, CreateSessionRequest{Spec: rawSpec(t, fleetSpec("drain-lab", 1))})

	var cmds []action.Command
	for c := 0; c < 8; c++ {
		cmds = append(cmds,
			action.Command{Device: "hp00", Action: action.SetActionValue, Value: 60},
			action.Command{Device: "hp00", Action: action.StartAction, Duration: time.Second},
			action.Command{Device: "hp00", Action: action.StopAction},
		)
	}
	type batchOut struct {
		results []CommandResult
		status  int
	}
	outc := make(chan batchOut, 1)
	go func() {
		got, status := postBatch(t, srv, info.SessionID, cmds)
		outc <- batchOut{got, status}
	}()
	// Give the batch a moment to be admitted and mid-flight.
	deadline := time.Now().Add(5 * time.Second)
	for tenantOf(gw, "drain-lab").inflight.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("batch never went in flight")
		}
		time.Sleep(time.Millisecond)
	}

	gw.Drain()

	// Every in-flight verdict arrived: drain waited the batch out.
	out := <-outc
	if out.status != http.StatusOK {
		t.Fatalf("in-flight batch status %d", out.status)
	}
	if len(out.results) != len(cmds) {
		t.Fatalf("in-flight batch dropped verdicts: %d of %d", len(out.results), len(cmds))
	}
	for _, r := range out.results {
		if r.Outcome != OutcomeOK {
			t.Fatalf("in-flight verdict %d: %s: %s", r.Seq, r.Outcome, r.Detail)
		}
	}

	// New batches and sessions are rejected with 503.
	if _, status := postBatch(t, srv, info.SessionID, cmds[:1]); status != http.StatusServiceUnavailable {
		t.Fatalf("post-drain batch status %d, want 503", status)
	}
	if _, status := tryCreateSession(t, srv, CreateSessionRequest{Lab: "testbed"}); status != http.StatusServiceUnavailable {
		t.Fatalf("post-drain session status %d, want 503", status)
	}

	// /readyz reports unready: the gateway component is draining and
	// the tenant engines report drained.
	resp, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body := new(bytes.Buffer)
	_, _ = body.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz status %d after drain, want 503", resp.StatusCode)
	}
	if !strings.Contains(body.String(), "draining") {
		t.Fatalf("/readyz body %q does not name the draining gateway", body.String())
	}

	// The engine gate underneath is closed too: a direct submit on the
	// tenant's engine is ErrDraining territory, proven via a fresh
	// session being impossible and the typed error surfacing on the
	// batch rejection path above.
	if !gw.draining.Load() {
		t.Fatal("draining flag not latched")
	}
}

// The rabitd shutdown sequence: drain gates and flushes while the
// listener still answers, and only Shutdown afterwards closes it.
func TestGatewayDrainThenListenerClose(t *testing.T) {
	gw := New(Options{})
	defer gw.Close()
	srv, err := gw.Group().ServeHandler("localhost:0", gw.Handler())
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + srv.Addr

	raw, _ := json.Marshal(CreateSessionRequest{Lab: "testbed"})
	resp, err := http.Post(base+"/v1/sessions", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create session: %d", resp.StatusCode)
	}

	gw.Drain()

	// Drained but still listening: /readyz answers 503 over the wire.
	resp, err = http.Get(base + "/readyz")
	if err != nil {
		t.Fatalf("listener closed before drain completed: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz %d while drained, want 503", resp.StatusCode)
	}

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := net.DialTimeout("tcp", srv.Addr, 200*time.Millisecond); err == nil {
		t.Fatal("listener still accepting after Shutdown")
	}
}

// An idle tenant is evicted: its engine closes and the pool forgets it;
// an active tenant stays.
func TestGatewayIdleEviction(t *testing.T) {
	gw, srv := newTestGateway(t, Options{IdleTimeout: 50 * time.Millisecond})
	info := createSession(t, srv, CreateSessionRequest{Spec: rawSpec(t, fleetSpec("ephemeral", 1))})
	keep := createSession(t, srv, CreateSessionRequest{Spec: rawSpec(t, fleetSpec("resident", 1))})
	_ = keep

	// While its session is open the tenant must survive any idle span.
	time.Sleep(120 * time.Millisecond)
	if n := len(gw.Tenants()); n != 2 {
		t.Fatalf("open-session tenant evicted: %d tenants", n)
	}

	// Close one session; only that tenant becomes evictable.
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/sessions/"+info.SessionID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	deadline := time.Now().Add(5 * time.Second)
	for len(gw.Tenants()) != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("idle tenant never evicted: %v", gw.Tenants())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if gw.Tenants()[0].Lab != "resident" {
		t.Fatalf("wrong tenant evicted: %v", gw.Tenants())
	}
}

// Unknown sessions, closed sessions, and bad specs fail with the right
// statuses.
func TestGatewayErrorPaths(t *testing.T) {
	_, srv := newTestGateway(t, Options{})

	if _, status := postBatch(t, srv, "nope", nil); status != http.StatusNotFound {
		t.Fatalf("unknown session: %d, want 404", status)
	}
	if _, status := tryCreateSession(t, srv, CreateSessionRequest{}); status != http.StatusBadRequest {
		t.Fatalf("empty create: %d, want 400", status)
	}
	if _, status := tryCreateSession(t, srv, CreateSessionRequest{Lab: "atlantis"}); status != http.StatusBadRequest {
		t.Fatalf("unknown lab: %d, want 400", status)
	}
	if _, status := tryCreateSession(t, srv, CreateSessionRequest{Spec: []byte(`{"lab":`)}); status != http.StatusBadRequest {
		t.Fatalf("broken spec: %d, want 400", status)
	}

	info := createSession(t, srv, CreateSessionRequest{Spec: rawSpec(t, fleetSpec("closing", 1))})

	// Bounded input: bodies over maxBodyBytes and batches over
	// maxBatchCommands are refused with 413 before anything runs;
	// malformed batches get 400.
	huge := append(append([]byte(`{"lab":"`), bytes.Repeat([]byte("x"), maxBodyBytes)...), `"}`...)
	if status := postRaw(t, srv, "/v1/sessions", huge); status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized create body: %d, want 413", status)
	}
	commandsURL := "/v1/sessions/" + info.SessionID + "/commands"
	hugeBatch := append(append([]byte(`{"commands":[],"pad":"`), bytes.Repeat([]byte("x"), maxBodyBytes)...), `"}`...)
	if status := postRaw(t, srv, commandsURL, hugeBatch); status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch body: %d, want 413", status)
	}
	tooMany := make([]action.Command, maxBatchCommands+1)
	for i := range tooMany {
		tooMany[i] = action.Command{Device: "hp00", Action: action.ReadStatus}
	}
	if _, status := postBatch(t, srv, info.SessionID, tooMany); status != http.StatusRequestEntityTooLarge {
		t.Fatalf("batch of %d commands: %d, want 413", len(tooMany), status)
	}
	for _, body := range []string{``, `{"commands":`, `{"commands":5}`, `[]`, `{"commands":[{"device":7}]}`} {
		if status := postRaw(t, srv, commandsURL, []byte(body)); status != http.StatusBadRequest {
			t.Fatalf("malformed batch %q: %d, want 400", body, status)
		}
	}
	if got, _ := getSessionInfo(t, srv, info.SessionID); got.Commands != 0 {
		t.Fatalf("refused batches ran %d commands", got.Commands)
	}

	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/sessions/"+info.SessionID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("close session: %d, want 204", resp.StatusCode)
	}
	if _, status := postBatch(t, srv, info.SessionID, nil); status != http.StatusNotFound {
		t.Fatalf("batch on closed session: %d, want 404", status)
	}
}
