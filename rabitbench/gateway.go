package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	rabit "repro"
	"repro/internal/action"
	"repro/internal/config"
	"repro/internal/gateway"
	"repro/internal/obs"
	"repro/internal/world"
)

// gateway_fleet: the in-process gateway served on a loopback listener
// with rabitd's defaults (tracing, recorder and rule metrics on). Two
// closed-loop clients each hold a session on one hotplate-fleet tenant,
// over disjoint devices. Each op is one request carrying a
// set/start/read/stop batch, timed from send to the last NDJSON verdict
// read. Every command takes the engine's sharded pipeline; there is no
// simulator on this path.

const (
	// gwClients is the number of closed-loop clients (and sessions). Each
	// client holds its session for the whole run.
	gwClients = 2
	// gwWarmup is how many requests each client sends before timing, on
	// the session it then holds for the whole run. The live heap is read
	// after them: the gateway keeps every command's trace record for a
	// session's lifetime, so a heap read at run end would grow with the
	// run's throughput, and a faster gateway would read worse.
	gwWarmup = 10000
	// gwSetups is how many times a run boots the gateway, builds the
	// tenant and opens the clients' sessions; setup_s is the median.
	gwSetups = 21
	// gwLab is the tenant's lab name.
	gwLab = "rabitbench-fleet"
)

// fleetSpec is a deck of gwClients independent hotplates, one per client.
func fleetSpec() *config.LabSpec {
	spec := &config.LabSpec{Lab: gwLab}
	for i := 0; i < gwClients; i++ {
		x := float64(i) * 0.3
		spec.Devices = append(spec.Devices, config.DeviceSpec{
			ID:   fleetDevice(i),
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

func fleetDevice(i int) string { return fmt.Sprintf("hp%02d", i) }

// fleetBatch is one op's batch: a seeded safe setpoint, a timed run, a
// status poll and a stop.
func fleetBatch(device string, setpoint float64) []action.Command {
	return []action.Command{
		{Device: device, Action: action.SetActionValue, Value: setpoint},
		{Device: device, Action: action.StartAction, Duration: time.Second},
		{Device: device, Action: action.ReadStatus},
		{Device: device, Action: action.StopAction},
	}
}

// gwServer is one booted gateway with its tenant System.
type gwServer struct {
	gw   *gateway.Gateway
	srv  *obs.Server
	url  string
	sys  atomic.Pointer[rabit.System] // the tenant, set when it is built
	spec []byte
	// With timing on, the middleware times each request that carries an
	// X-Bench-Request id and leaves the duration here for the client.
	timing   atomic.Bool
	handlers sync.Map // request id -> time.Duration
}

func bootGateway() (*gwServer, error) {
	s := &gwServer{}
	s.gw = gateway.New(gateway.Options{
		System:          rabit.Options{Seed: 1},
		ConfigureSystem: func(_ string, sys *rabit.System) { s.sys.Store(sys) },
	})
	h := s.gw.Handler()
	srv, err := s.gw.Group().ServeHandler("127.0.0.1:0", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !s.timing.Load() || r.Method != http.MethodPost {
			h.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		h.ServeHTTP(w, r)
		if id := r.Header.Get("X-Bench-Request"); id != "" {
			s.handlers.Store(id, time.Since(t0))
		}
	}))
	if err != nil {
		s.gw.Close()
		return nil, err
	}
	s.srv = srv
	s.url = "http://" + srv.Addr
	raw, err := json.Marshal(fleetSpec())
	if err != nil {
		s.close()
		return nil, err
	}
	s.spec = raw
	return s, nil
}

func (s *gwServer) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s.gw.Drain()
	_ = s.srv.Shutdown(ctx) // a loopback listener with idle clients shuts down at once
	_ = s.gw.Close()        // no trace file or incident dir: nothing to flush
}

// gwClient is one closed-loop experiment script.
type gwClient struct {
	s       *gwServer
	hc      *http.Client
	device  string
	rng     *rand.Rand
	session string
	seq     int // last verdict seq seen on the session
	// model is the benchmark's own model of the device: the last
	// setpoint sent; every batch ends stopped.
	model float64
	// outcome counters.
	commands int64
	rejected int64
	traced   bool
	handler  []time.Duration // traced: handler time per request
	trans    []time.Duration // traced: round trip minus handler time
	lat      []time.Duration
	reqID    int
	id       int
	err      error
}

func (c *gwClient) open() error {
	raw, err := json.Marshal(gateway.CreateSessionRequest{Spec: c.s.spec})
	if err != nil {
		return err
	}
	resp, err := c.hc.Post(c.s.url+"/v1/sessions", "application/json", bytes.NewReader(raw))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("create session: status %d", resp.StatusCode)
	}
	var info gateway.SessionInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return err
	}
	c.session, c.seq = info.SessionID, 0
	return nil
}

// op sends one batch and reads its verdicts, returning an error for any
// wrong verdict.
func (c *gwClient) op() error {
	setpoint := float64(40 + c.rng.Intn(100))
	batch := fleetBatch(c.device, setpoint)
	raw, err := json.Marshal(gateway.CommandBatch{Commands: batch})
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPost, c.s.url+"/v1/sessions/"+c.session+"/commands", bytes.NewReader(raw))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	id := ""
	if c.traced {
		c.reqID++
		id = strconv.Itoa(c.id) + "-" + strconv.Itoa(c.reqID)
		req.Header.Set("X-Bench-Request", id)
	}
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests {
		c.rejected++
	}
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("commands: status %d", resp.StatusCode)
	}
	verdicts, err := readVerdicts(resp.Body, len(batch))
	rtt := time.Since(t0)
	if err != nil {
		return err
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if err := checkVerdicts(verdicts, len(batch), c.seq); err != nil {
		return err
	}
	c.seq += len(batch)
	c.commands += int64(len(batch))
	c.model = setpoint
	c.lat = append(c.lat, rtt)
	if c.traced {
		if h, ok := c.s.handlers.LoadAndDelete(id); ok {
			c.handler = append(c.handler, h.(time.Duration))
			c.trans = append(c.trans, rtt-h.(time.Duration))
		}
	}
	return nil
}

// readVerdicts reads want NDJSON verdict lines.
func readVerdicts(r io.Reader, want int) ([]gateway.CommandResult, error) {
	br := bufio.NewReader(r)
	out := make([]gateway.CommandResult, 0, want)
	for len(out) < want {
		line, err := br.ReadBytes('\n')
		if len(bytes.TrimSpace(line)) > 0 {
			var v gateway.CommandResult
			if jerr := json.Unmarshal(line, &v); jerr != nil {
				return out, fmt.Errorf("verdict %d: %w", len(out)+1, jerr)
			}
			out = append(out, v)
		}
		if err != nil {
			break
		}
	}
	return out, nil
}

// checkVerdicts is the per-request output check: one ok verdict per
// command sent, with seqs continuing the session's sequence.
func checkVerdicts(vs []gateway.CommandResult, sent, lastSeq int) error {
	if len(vs) != sent {
		return fmt.Errorf("gateway_fleet: %d verdicts for %d commands", len(vs), sent)
	}
	for i, v := range vs {
		if v.Outcome != gateway.OutcomeOK {
			return fmt.Errorf("gateway_fleet: verdict %d: %s: %s", v.Seq, v.Outcome, v.Detail)
		}
		if v.Seq != lastSeq+i+1 {
			return fmt.Errorf("gateway_fleet: verdict seq %d, want %d", v.Seq, lastSeq+i+1)
		}
	}
	return nil
}

// checkFleet is the end-of-run output check against the benchmark's
// own model: each hotplate holds the last setpoint its client sent and
// is stopped, the tenant processed exactly the commands sent, and no
// request was pushed back.
func checkFleet(model map[string]float64, status map[string]world.FixtureStatus, sent, processed, rejected int64) error {
	for dev, want := range model {
		st, ok := status[dev]
		if !ok {
			return fmt.Errorf("gateway_fleet: no hotplate %s", dev)
		}
		if st.ActionValue != want || st.Running {
			return fmt.Errorf("gateway_fleet: %s holds setpoint %.1f running=%v, want %.1f stopped", dev, st.ActionValue, st.Running, want)
		}
	}
	if processed != sent {
		return fmt.Errorf("gateway_fleet: tenant counted %d commands, %d sent", processed, sent)
	}
	if rejected != 0 {
		return fmt.Errorf("gateway_fleet: %d requests rejected with 429", rejected)
	}
	return nil
}

// gwSlice is the length of one throughput slice of a gateway window.
const gwSlice = time.Second

// gwWindow drives the clients for one measured window, folding it into c
// as one-second slices, and returns the ops attempted and failed.
func gwWindow(clients []*gwClient, d time.Duration, c *costs) (attempted, failed int64) {
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	var done, nfailed atomic.Int64
	a := sampleProc()
	for _, cl := range clients {
		wg.Add(1)
		go func(cl *gwClient) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				if err := cl.op(); err != nil {
					nfailed.Add(1)
					cl.err = err
					return
				}
				done.Add(1)
			}
		}(cl)
	}
	finished := make(chan struct{})
	go func() {
		wg.Wait()
		close(finished)
	}()
	tick := time.NewTicker(gwSlice)
	defer tick.Stop()
	prevT, prevCPU, prevN := a.wall, a.cpu, int64(0)
	for running := true; running; {
		select {
		case <-tick.C:
		case <-finished:
			running = false
		}
		now, cpu, n := time.Now(), cpuTime(), done.Load()
		// The stragglers after the deadline make a short last slice; it
		// is kept only if it is at least half a slice long.
		if running || now.Sub(prevT) >= gwSlice/2 {
			c.slices = append(c.slices, slice{ops: n - prevN, wall: now.Sub(prevT), cpu: cpu - prevCPU})
		}
		prevT, prevCPU, prevN = now, cpu, n
	}
	b := sampleProc()
	attempted = done.Load() + nfailed.Load()
	c.addTotals(a, b, attempted)
	return attempted, nfailed.Load()
}

// warmUp sends gwWarmup requests from each client concurrently.
func warmUp(clients []*gwClient) error {
	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for w := 0; w < gwWarmup && errs[i] == nil; w++ {
				errs[i] = c.op()
			}
			c.lat = c.lat[:0]
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

func runGateway(cfg runConfig) (*result, error) {
	res := newResult()
	var s *gwServer
	var clients []*gwClient
	var setups []time.Duration
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: gwClients, MaxConnsPerHost: gwClients}}
	defer hc.CloseIdleConnections()
	for i := 0; i < gwSetups; i++ {
		if s != nil {
			s.close()
		}
		t0 := time.Now()
		var err error
		if s, err = bootGateway(); err != nil {
			return nil, err
		}
		clients = clients[:0]
		for k := 0; k < gwClients; k++ {
			c := &gwClient{s: s, hc: hc, device: fleetDevice(k), id: k,
				rng: rand.New(rand.NewSource(cfg.seed*100 + int64(k)))}
			if err := c.open(); err != nil {
				s.close()
				return nil, err
			}
			clients = append(clients, c)
		}
		setups = append(setups, time.Since(t0))
	}
	// The warm-up is not set-up the program does; it opens the clients'
	// connections, lets the first requests' lazy work finish before timing
	// and fills the sessions to a fixed number of commands.
	if err := warmUp(clients); err != nil {
		s.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	defer s.close()
	var heap float64
	if !cfg.traced {
		heap = heapLiveMB(s)
	}

	sys := s.sys.Load()
	var c costs
	var plain costs
	if !cfg.traced {
		res.Attempted, res.Failed = gwWindow(clients, cfg.measure, &c)
	} else {
		res.Attempted, res.Failed = gwWindow(clients, cfg.measure/2, &plain)
		h0 := histMark(sys.Obs)
		s.timing.Store(true)
		for _, cl := range clients {
			cl.traced = true
		}
		ops, failed := gwWindow(clients, cfg.measure/2, &c)
		s.timing.Store(false)
		res.Attempted += ops
		res.Failed += failed
		reportGatewayLayers(res, clients, h0, histMark(sys.Obs))
		reportOverhead(res, &plain, &c)
	}

	// Output checks against the benchmark's own model.
	var sent, rejected int64
	model := map[string]float64{}
	status := map[string]world.FixtureStatus{}
	var lat []time.Duration
	for _, cl := range clients {
		if cl.err != nil {
			res.fail(cl.err)
		}
		sent += cl.commands
		rejected += cl.rejected
		model[cl.device] = cl.model
		st, _ := sys.Env.World().FixtureStatus(cl.device)
		status[cl.device] = st
		lat = append(lat, cl.lat...)
	}
	res.fail(checkFleet(model, status, sent, sys.Obs.Counter(obs.CounterCommands).Value(), rejected))
	if !cfg.traced {
		c.report(res)
		res.set("setup_s", medianSeconds(setups), "s")
		reportLatency(res, lat)
		res.set("heap_live_mb", heap, "MiB")
	}
	return res, nil
}

// histSums are the tenant's stage histograms' sums and counts at one
// instant.
type histSums map[string][2]int64

var gwStages = []string{obs.StageIntercept, obs.StageValidate, obs.StageFetch, obs.StageCompare, obs.StageExecute}

func histMark(reg *obs.Registry) histSums {
	m := histSums{}
	for _, st := range gwStages {
		h := reg.Histogram(st)
		m[st] = [2]int64{int64(h.Sum()), h.Count()}
	}
	return m
}

// meanUS is the exact mean of a stage over the window [a, b].
func meanUS(a, b histSums, stage string) float64 {
	n := b[stage][1] - a[stage][1]
	if n == 0 {
		return 0
	}
	return float64(b[stage][0]-a[stage][0]) / 1e3 / float64(n)
}

func reportGatewayLayers(res *result, clients []*gwClient, a, b histSums) {
	var handlers, trans []time.Duration
	var rejected int64
	for _, c := range clients {
		handlers = append(handlers, c.handler...)
		trans = append(trans, c.trans...)
		rejected += c.rejected
	}
	var hsum time.Duration
	for _, d := range handlers {
		hsum += d
	}
	intercept := time.Duration(b[obs.StageIntercept][0] - a[obs.StageIntercept][0])
	reqs := float64(max(len(handlers), 1))
	res.set("gateway.handler_p50_us", durQuantileUS(handlers, 0.5), "us")
	res.set("gateway.transport_p50_us", durQuantileUS(trans, 0.5), "us")
	res.set("gateway.self_us_per_req", float64((hsum-intercept).Nanoseconds())/1e3/reqs, "us")
	res.set("gateway.rejected", float64(rejected), "count")
	res.set("trace.intercept_us_per_cmd", meanUS(a, b, obs.StageIntercept), "us")
	res.set("core.validate_us_per_cmd", meanUS(a, b, obs.StageValidate), "us")
	res.set("core.fetch_us_per_cmd", meanUS(a, b, obs.StageFetch), "us")
	res.set("core.compare_us_per_cmd", meanUS(a, b, obs.StageCompare), "us")
	res.set("env.execute_us_per_cmd", meanUS(a, b, obs.StageExecute), "us")
}
