// Package gateway is the multi-lab safety-gateway service: a
// long-running HTTP+JSON front for a pool of per-lab rabit.System
// engines. Each lab tenant owns one System (lazily instantiated from a
// named or inline lab spec and evicted when idle); experiment scripts
// attach sessions to a tenant and stream commands through the tenant's
// engine exactly as an embedded interceptor would — same checks, same
// verdicts, same alerts. Admission control is per tenant: a bounded
// queue of concurrently admitted command batches, with overflow pushed
// back to the client (HTTP 429 + Retry-After) instead of queueing
// unboundedly inside the safety path. Drain is a real gate shared with
// the engines underneath: once draining, new command batches are
// rejected with ErrDraining while every in-flight batch finishes its
// checks, then each tenant's recorders and traces flush.
package gateway

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/config"
	"repro/internal/labs"
	"repro/internal/obs"
	"repro/internal/trace"
)

// ErrDraining is returned (and served as 503) for command batches and
// sessions submitted after Drain: the gateway's admission gate rejected
// them before any check or execution.
var ErrDraining = rabit.ErrDraining

// ErrTenantFailed is returned (and served as 500) once a tenant has
// panicked. A panic beneath a session — in the engine, a custom rule, or
// the spec compile — is recovered at the session boundary: the command
// in flight gets an error verdict (never ok), the panic is counted in
// rabit_gateway_panics_total{tenant=…}, and the tenant is marked
// failed, because the panicking check may have left the engine's locks
// held. Every later batch or session on that lab gets this error; the
// gateway's other tenants keep serving.
var ErrTenantFailed = errors.New("gateway: tenant failed")

// Defaults.
const (
	// DefaultQueueDepth is the per-tenant admission bound: how many
	// command batches may be in flight on one lab at once before the
	// gateway pushes back with 429.
	DefaultQueueDepth = 4
	// DefaultMaxTenants caps the engine pool.
	DefaultMaxTenants = 16
	// DefaultWriteTimeout bounds each write of a streamed NDJSON verdict
	// response: a client that stops reading cannot pin a session lock
	// and an admission token for longer than this per verdict line. The
	// aborted stream increments rabit_gateway_slow_client_aborts_total.
	DefaultWriteTimeout = 10 * time.Second
)

// Options configures a Gateway.
type Options struct {
	// System is the option template every tenant's System is built
	// from. ObsGroup is overridden with the gateway's own group —
	// tenants must never register into another service's introspection
	// domain — and TraceFile must be empty (per-tenant trace files
	// would collide on one path).
	System rabit.Options
	// QueueDepth bounds concurrently admitted command batches per
	// tenant (default DefaultQueueDepth).
	QueueDepth int
	// MaxTenants caps the engine pool (default DefaultMaxTenants);
	// session creation for a new lab beyond the cap fails.
	MaxTenants int
	// IdleTimeout evicts a tenant once it has had no sessions and no
	// traffic for this long (its System is closed and its engine
	// released). Zero keeps tenants forever.
	IdleTimeout time.Duration
	// WriteTimeout bounds each write on a streamed verdict response
	// (default DefaultWriteTimeout); see the slow-client guard in
	// handleCommands. Negative disables the deadline.
	WriteTimeout time.Duration
	// ConfigureSystem, when set, runs after each tenant's System is
	// built and before it serves commands — the evaluation harness uses
	// it to set execution pacing on the tenant's environment.
	ConfigureSystem func(lab string, sys *rabit.System)
}

// tenant is one lab's pooled engine plus its admission queue.
type tenant struct {
	lab string
	sys *rabit.System
	// sem holds QueueDepth admission tokens; a command batch try-
	// acquires one and full means 429, never an unbounded queue in
	// front of the safety checks.
	sem      chan struct{}
	sessions int
	lastUsed time.Time
	// failed holds the error every request on this lab gets once a
	// panic beneath one of its sessions was recovered (nil while
	// healthy). A failed tenant is never reused, drained or closed: its
	// engine's locks may still be held.
	failed atomic.Pointer[error]

	// Cached per-tenant instruments (ISSUE 10): the RED set plus
	// admission-queue depth, rejections, and active sessions, all
	// tenant-labeled series of the gateway's own registry. Resolved once
	// at tenant construction so the request path is atomic increments.
	mReqs     *obs.Counter
	mErrs     *obs.Counter
	mRejects  *obs.Counter
	mDur      *obs.Histogram
	mQueue    *obs.Gauge
	mSessions *obs.Gauge
}

// session is one experiment script's attachment to a tenant: its own
// interceptor (own command sequence, own run trace) sharing the
// tenant's engine, exactly the sharded deployment of the evaluation
// harness.
type session struct {
	id     string
	tenant *tenant
	ic     *trace.Interceptor
	// mu serializes command batches on the session so one script's
	// NDJSON response stream is never interleaved with another batch on
	// the same session. seq mirrors the interceptor's per-command
	// sequence (one increment per Do), giving each streamed verdict the
	// same seq its trace record carries; it is written under mu and read
	// lock-free as the session's command count. (A command refused
	// because the tenant had already failed also takes a seq.)
	mu     sync.Mutex
	seq    atomic.Int64
	closed atomic.Bool
}

// Gateway is the engine pool and session table behind the HTTP API.
type Gateway struct {
	opts  Options
	group *obs.Group
	// reg is the gateway's own registry (scrape alias "gateway"): the
	// tenant-labeled admission and RED families live here, beside — not
	// inside — the tenants' per-System registries, so tenant eviction
	// never erases the gateway's view of that lab's request history.
	reg         *obs.Registry
	famReqs     *obs.Family
	famErrs     *obs.Family
	famRejects  *obs.Family
	famDur      *obs.Family
	famQueue    *obs.Family
	famSessions *obs.Family
	famPanics   *obs.Family
	cSlowAborts *obs.Counter

	mu       sync.Mutex
	tenants  map[string]*tenant
	sessions map[string]*session
	sessSeq  int
	closed   bool

	// draining is the admission gate; inflight counts admitted command
	// batches. The pairing mirrors the engine's own gate: admission
	// increments inflight first and then checks the gate, drain closes
	// the gate first and then waits inflight out, so under sequentially
	// consistent atomics a batch racing a drain is either seen by the
	// wait or rejected — never silently admitted after /readyz flips.
	draining  atomic.Bool
	inflight  atomic.Int64
	drainOnce sync.Once

	health      *obs.HealthReg
	janitorStop chan struct{}
	janitorDone chan struct{}
}

// New builds a gateway with an empty engine pool and its own
// introspection group.
func New(opts Options) *Gateway {
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = DefaultQueueDepth
	}
	if opts.MaxTenants <= 0 {
		opts.MaxTenants = DefaultMaxTenants
	}
	if opts.WriteTimeout == 0 {
		opts.WriteTimeout = DefaultWriteTimeout
	}
	opts.System.TraceFile = ""
	g := &Gateway{
		opts:     opts,
		group:    obs.NewGroup(),
		reg:      obs.NewRegistry("gateway"),
		tenants:  map[string]*tenant{},
		sessions: map[string]*session{},
	}
	g.group.Register(g.reg)
	g.famReqs = g.reg.CounterFamily(obs.FamilyGatewayRequests, obs.LabelTenant)
	g.famErrs = g.reg.CounterFamily(obs.FamilyGatewayErrors, obs.LabelTenant)
	g.famRejects = g.reg.CounterFamily(obs.FamilyGatewayRejections, obs.LabelTenant)
	g.famDur = g.reg.HistogramFamily(obs.FamilyGatewayRequest, obs.LabelTenant)
	g.famQueue = g.reg.GaugeFamily(obs.FamilyGatewayQueueDepth, obs.LabelTenant)
	g.famSessions = g.reg.GaugeFamily(obs.FamilyGatewaySessions, obs.LabelTenant)
	g.famPanics = g.reg.CounterFamily(obs.FamilyGatewayPanics, obs.LabelTenant)
	g.cSlowAborts = g.reg.Counter(obs.CounterGatewaySlowClientAborts)
	g.health = g.group.RegisterHealth("gateway", func() obs.Health {
		if g.draining.Load() {
			return obs.Health{OK: true, Ready: false, Detail: "draining"}
		}
		g.mu.Lock()
		n := len(g.tenants)
		g.mu.Unlock()
		return obs.Health{OK: true, Ready: true, Detail: fmt.Sprintf("%d tenants", n)}
	})
	if opts.IdleTimeout > 0 {
		g.janitorStop = make(chan struct{})
		g.janitorDone = make(chan struct{})
		go g.janitor()
	}
	return g
}

// Group returns the gateway's introspection group: every tenant's
// registries, health components, and SLOs, plus the gateway's own
// admission state. Handler mounts its routes; rabitd serves them on the
// gateway listener.
func (g *Gateway) Group() *obs.Group { return g.group }

// resolveSpec maps a create-session request onto a lab spec: an inline
// spec wins, else a named lab ("testbed", "hein", "berlinguette").
func resolveSpec(lab string, raw []byte) (*config.LabSpec, error) {
	if len(raw) > 0 {
		spec, diags := config.Parse(raw)
		if spec == nil {
			msg := "invalid lab spec"
			if len(diags) > 0 {
				msg = diags[0].String()
			}
			return nil, fmt.Errorf("gateway: %s", msg)
		}
		return spec, nil
	}
	switch lab {
	case "testbed":
		return labs.TestbedSpec(), nil
	case "hein", "hein-production":
		return labs.HeinProductionSpec(), nil
	case "berlinguette":
		return labs.BerlinguetteSpec(), nil
	case "":
		return nil, errors.New("gateway: session needs a lab name or an inline spec")
	default:
		return nil, fmt.Errorf("gateway: unknown lab %q (named labs: testbed, hein, berlinguette; or send an inline spec)", lab)
	}
}

// tenantFor returns the lab's pooled tenant, lazily building its System
// on first use. Tenants are keyed by the spec's lab name: the first
// session's spec wins, later sessions attach to the running engine.
func (g *Gateway) tenantFor(spec *config.LabSpec) (*tenant, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return nil, ErrDraining
	}
	if t, ok := g.tenants[spec.Lab]; ok {
		if err := t.err(); err != nil {
			return nil, err
		}
		return t, nil
	}
	if len(g.tenants) >= g.opts.MaxTenants {
		return nil, fmt.Errorf("gateway: tenant pool full (%d labs)", g.opts.MaxTenants)
	}
	o := g.opts.System
	o.ObsGroup = g.group
	// Each tenant's safety SLOs carry its lab as the tenant label, so
	// per-tenant burn rates export as distinct series.
	o.Tenant = spec.Lab
	if o.IncidentTag == "" {
		o.IncidentTag = spec.Lab
	}
	sys, err := rabit.New(spec, o)
	if err != nil {
		return nil, err
	}
	if g.opts.ConfigureSystem != nil {
		g.opts.ConfigureSystem(spec.Lab, sys)
	}
	t := &tenant{
		lab:       spec.Lab,
		sys:       sys,
		sem:       make(chan struct{}, g.opts.QueueDepth),
		lastUsed:  time.Now(),
		mReqs:     g.famReqs.Counter(spec.Lab),
		mErrs:     g.famErrs.Counter(spec.Lab),
		mRejects:  g.famRejects.Counter(spec.Lab),
		mDur:      g.famDur.Histogram(spec.Lab),
		mQueue:    g.famQueue.Gauge(spec.Lab),
		mSessions: g.famSessions.Gauge(spec.Lab),
	}
	g.tenants[spec.Lab] = t
	return t, nil
}

// err returns the tenant's failure, or nil while it is healthy.
func (t *tenant) err() error {
	if e := t.failed.Load(); e != nil {
		return *e
	}
	return nil
}

// recovered turns a panic recovered beneath lab's session boundary into
// the request's error: it counts the panic, marks the tenant failed (t
// may be nil when the panic came before the tenant existed) and returns
// an error wrapping ErrTenantFailed.
func (g *Gateway) recovered(lab string, t *tenant, r any) error {
	g.famPanics.Counter(lab).Inc()
	err := fmt.Errorf("%w: lab %s panicked: %v", ErrTenantFailed, lab, r)
	if t != nil {
		t.failed.CompareAndSwap(nil, &err)
	}
	return err
}

// CreateSession binds a new session to the lab's tenant and returns its
// ID. raw, when non-empty, is an inline lab-spec JSON document. A panic
// while the spec compiles or the tenant builds fails the request with
// ErrTenantFailed instead of the process.
func (g *Gateway) CreateSession(lab string, raw []byte) (_, _ string, err error) {
	if g.draining.Load() {
		return "", "", ErrDraining
	}
	defer func() {
		if r := recover(); r != nil {
			err = g.recovered(lab, nil, r)
		}
	}()
	spec, err := resolveSpec(lab, raw)
	if err != nil {
		return "", "", err
	}
	lab = spec.Lab
	t, err := g.tenantFor(spec)
	if err != nil {
		return "", "", err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return "", "", ErrDraining
	}
	g.sessSeq++
	id := fmt.Sprintf("s%04d-%s", g.sessSeq, t.lab)
	ic := trace.NewInterceptor(t.sys.Engine, t.sys.Env)
	ic.SetObserver(t.sys.Obs)
	ic.SetRecorder(t.sys.Recorder)
	ic.SetTracer(t.sys.Tracer)
	s := &session{id: id, tenant: t, ic: ic}
	g.sessions[id] = s
	t.sessions++
	t.mSessions.Set(int64(t.sessions))
	t.lastUsed = time.Now()
	return id, t.lab, nil
}

// lookup returns a session by ID.
func (g *Gateway) lookup(id string) (*session, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	s, ok := g.sessions[id]
	return s, ok
}

// CloseSession detaches a session: its run trace closes (making its
// tail-sampling decision) and its ID is forgotten. The tenant's engine
// stays pooled for other sessions or until idle eviction.
func (g *Gateway) CloseSession(id string) error {
	g.mu.Lock()
	s, ok := g.sessions[id]
	if ok {
		delete(g.sessions, id)
		s.tenant.sessions--
		s.tenant.mSessions.Set(int64(s.tenant.sessions))
		s.tenant.lastUsed = time.Now()
	}
	g.mu.Unlock()
	if !ok {
		return fmt.Errorf("gateway: unknown session %q", id)
	}
	s.closed.Store(true)
	s.mu.Lock()
	s.ic.FinishTrace()
	s.mu.Unlock()
	return nil
}

// admitBatch is the gateway-level admission gate for one command batch:
// inflight is incremented before the gate is read, so Drain's
// store-then-wait can never miss a batch it did not reject. The caller
// must call releaseBatch exactly once when admitted.
func (g *Gateway) admitBatch() bool {
	g.inflight.Add(1)
	if g.draining.Load() {
		g.inflight.Add(-1)
		return false
	}
	return true
}

func (g *Gateway) releaseBatch() { g.inflight.Add(-1) }

// Drain gates the gateway for shutdown: new sessions and command
// batches are rejected with ErrDraining, /readyz flips to unready,
// every in-flight batch finishes its checks, and then each tenant's
// System drains (closing the engine admission gate and flushing
// recorders and traces). Idempotent; blocks until quiesced.
func (g *Gateway) Drain() {
	g.drainOnce.Do(func() {
		g.draining.Store(true)
		if g.janitorStop != nil {
			close(g.janitorStop)
			<-g.janitorDone
		}
		for g.inflight.Load() > 0 {
			time.Sleep(200 * time.Microsecond)
		}
		g.mu.Lock()
		tenants := make([]*tenant, 0, len(g.tenants))
		for _, t := range g.tenants {
			tenants = append(tenants, t)
		}
		g.mu.Unlock()
		for _, t := range tenants {
			if t.err() == nil {
				t.sys.Drain()
			}
		}
	})
}

// Close drains the gateway and closes every tenant System, aggregating
// their flush errors with errors.Join.
func (g *Gateway) Close() error {
	g.Drain()
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil
	}
	g.closed = true
	tenants := g.tenants
	g.tenants = map[string]*tenant{}
	g.sessions = map[string]*session{}
	g.mu.Unlock()
	g.health.Unregister()
	var errs []error
	for _, t := range tenants {
		if t.err() != nil {
			continue // its engine's locks may be held; see ErrTenantFailed
		}
		if err := t.sys.Close(); err != nil {
			errs = append(errs, fmt.Errorf("gateway: tenant %s: %w", t.lab, err))
		}
	}
	return errors.Join(errs...)
}

// janitor evicts idle tenants: no sessions and no traffic for
// IdleTimeout. The evicted System drains and closes, releasing its
// engine, registries, and health components.
func (g *Gateway) janitor() {
	defer close(g.janitorDone)
	tick := time.NewTicker(g.opts.IdleTimeout / 2)
	defer tick.Stop()
	for {
		select {
		case <-g.janitorStop:
			return
		case <-tick.C:
		}
		var evict []*tenant
		g.mu.Lock()
		for lab, t := range g.tenants {
			if t.sessions == 0 && time.Since(t.lastUsed) >= g.opts.IdleTimeout && t.err() == nil {
				delete(g.tenants, lab)
				evict = append(evict, t)
			}
		}
		g.mu.Unlock()
		for _, t := range evict {
			t.sys.Close()
		}
	}
}

// Tenants reports the current pool for /v1/labs and the eval harness.
func (g *Gateway) Tenants() []TenantStatus {
	g.mu.Lock()
	type row struct {
		t        *tenant
		sessions int
	}
	rows := make([]row, 0, len(g.tenants))
	for _, t := range g.tenants {
		rows = append(rows, row{t: t, sessions: t.sessions})
	}
	g.mu.Unlock()
	out := make([]TenantStatus, 0, len(rows))
	for _, r := range rows {
		t := r.t
		st := TenantStatus{Lab: t.lab, Sessions: r.sessions, Ready: true}
		if err := t.err(); err != nil {
			st.Failed, st.Ready = err.Error(), false
		} else if t.sys.Engine != nil {
			st.Alerts = len(t.sys.Engine.Alerts())
			if a := t.sys.Engine.Stopped(); a != nil {
				st.Stopped = a.Kind.Slug()
				st.Ready = false
			}
			if t.sys.Engine.Draining() {
				st.Ready = false
			}
		}
		out = append(out, st)
	}
	return out
}
