package gateway

import (
	"encoding/json"
	"errors"
	"net/http"
	"time"

	"repro/internal/action"
)

// Handler returns the gateway mux: the /v1 session API plus the
// gateway group's introspection routes (/metrics, /metrics/prom,
// /healthz, /readyz, /traces, /debug/pprof) on the same listener — one
// port serves both the safety API and its own observability.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", g.handleCreateSession)
	mux.HandleFunc("GET /v1/sessions/{id}", g.handleSessionInfo)
	mux.HandleFunc("DELETE /v1/sessions/{id}", g.handleCloseSession)
	mux.HandleFunc("POST /v1/sessions/{id}/commands", g.handleCommands)
	mux.HandleFunc("GET /v1/labs", g.handleLabs)
	mux.Handle("/", g.group.Handler())
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, ErrorBody{Error: err.Error()})
}

// writeDecodeErr answers a request body that failed to decode: 413 when
// it is over maxBodyBytes or names more than maxBatchCommands commands,
// 400 when it is malformed.
func writeDecodeErr(w http.ResponseWriter, err error) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) || errors.Is(err, errBatchTooLarge) {
		writeErr(w, http.StatusRequestEntityTooLarge, err)
		return
	}
	writeErr(w, http.StatusBadRequest, err)
}

func (g *Gateway) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	var req CreateSessionRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		writeDecodeErr(w, err)
		return
	}
	id, lab, err := g.CreateSession(req.Lab, req.Spec)
	switch {
	case errors.Is(err, ErrDraining):
		writeErr(w, http.StatusServiceUnavailable, err)
		return
	case errors.Is(err, ErrTenantFailed):
		writeErr(w, http.StatusInternalServerError, err)
		return
	case err != nil:
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusCreated, SessionInfo{SessionID: id, Lab: lab})
}

func (g *Gateway) handleSessionInfo(w http.ResponseWriter, r *http.Request) {
	s, ok := g.lookup(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, errors.New("gateway: unknown session"))
		return
	}
	writeJSON(w, http.StatusOK, SessionInfo{
		SessionID: s.id,
		Lab:       s.tenant.lab,
		Commands:  int(s.seq.Load()),
	})
}

func (g *Gateway) handleCloseSession(w http.ResponseWriter, r *http.Request) {
	if err := g.CloseSession(r.PathValue("id")); err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (g *Gateway) handleLabs(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, g.Tenants())
}

// handleCommands runs one command batch through the session's
// interceptor, streaming each verdict back as one NDJSON line the
// moment it lands. The batch stops at the first non-ok verdict —
// embedded script semantics. Admission is two-staged: the gateway-wide
// drain gate (503 once draining), then the tenant's bounded queue (429
// + Retry-After when QueueDepth batches are already in flight on the
// lab). A tenant that has panicked answers 500 (see ErrTenantFailed).
func (g *Gateway) handleCommands(w http.ResponseWriter, r *http.Request) {
	s, ok := g.lookup(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, errors.New("gateway: unknown session"))
		return
	}
	if s.closed.Load() {
		writeErr(w, http.StatusConflict, errors.New("gateway: session closed"))
		return
	}
	if err := s.tenant.err(); err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	batch, err := decodeBatch(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeDecodeErr(w, err)
		return
	}
	t := s.tenant
	if !g.admitBatch(t) {
		writeErr(w, http.StatusServiceUnavailable, ErrDraining)
		return
	}
	defer t.releaseBatch()
	select {
	case t.sem <- struct{}{}:
	default:
		t.mRejects.Inc()
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusTooManyRequests,
			errors.New("gateway: lab "+t.lab+" admission queue full"))
		return
	}
	t.mQueue.Set(int64(len(t.sem)))
	defer func() {
		<-t.sem
		t.mQueue.Set(int64(len(t.sem)))
	}()
	g.mu.Lock()
	t.lastUsed = time.Now()
	g.mu.Unlock()

	// RED accounting: the batch is the request unit. A batch whose
	// stream ends in any error — alert, engine error, or a severed slow
	// client — counts against the tenant's error series.
	t.mReqs.Inc()
	start := time.Now()
	defer func() { t.mDur.Observe(time.Since(start)) }()

	s.mu.Lock()
	defer s.mu.Unlock()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	// Slow-client guard: every verdict line must be written (and
	// flushed) within WriteTimeout, or the stream is severed. Without a
	// deadline, a client that stops reading pins this session's lock and
	// one of the tenant's QueueDepth admission tokens indefinitely —
	// starving the lab's other scripts off a full verdict buffer.
	rc := http.NewResponseController(w)
	for i, cmd := range batch.Commands {
		err := g.do(s, batch.Commands, i)
		seq := int(s.seq.Add(1))
		if g.opts.WriteTimeout > 0 {
			_ = rc.SetWriteDeadline(time.Now().Add(g.opts.WriteTimeout))
		}
		if werr := enc.Encode(result(cmd, seq, err)); werr != nil {
			g.cSlowAborts.Inc()
			t.mErrs.Inc()
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
		if err != nil {
			t.mErrs.Inc()
			return
		}
	}
}

// do runs batch[i] through the session's interceptor — with the next
// command as its lookahead hint when there is one: the batch is the
// lookahead's ideal input, so the engine can pre-validate it while this
// one executes. A panic anywhere beneath the interceptor is recovered
// here, at the session boundary, and becomes the command's error
// verdict and the tenant's failure. Once the tenant has failed — also
// mid-batch, by another session's panic — commands get its error
// without reaching the engine.
func (g *Gateway) do(s *session, batch []action.Command, i int) (err error) {
	if err := s.tenant.err(); err != nil {
		return err
	}
	defer func() {
		if r := recover(); r != nil {
			err = g.recovered(s.tenant.lab, s.tenant, r)
		}
	}()
	if i+1 < len(batch) {
		return s.ic.DoLookahead(batch[i], batch[i+1])
	}
	return s.ic.Do(batch[i])
}
