package gateway

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"

	"repro/internal/action"
	"repro/internal/core"
)

// The wire format of the gateway API. Commands travel as
// action.Command's own JSON encoding — the gateway adds no translation
// layer between scripts and the engine — and command batches stream
// back as NDJSON, one CommandResult line per command, flushed as each
// verdict lands so a long paced batch reports progress live.

// CreateSessionRequest opens a session on a lab tenant: a named lab
// ("testbed", "hein", "berlinguette") or an inline lab-spec document
// (tenant-keyed by the spec's lab name).
type CreateSessionRequest struct {
	Lab  string          `json:"lab,omitempty"`
	Spec json.RawMessage `json:"spec,omitempty"`
}

// SessionInfo describes a session (create and attach responses).
type SessionInfo struct {
	SessionID string `json:"session_id"`
	Lab       string `json:"lab"`
	Commands  int    `json:"commands"`
}

// CommandBatch is the body of a commands POST: the batch executes in
// order and stops at the first non-ok verdict, mirroring an embedded
// script halting on its first alert.
type CommandBatch struct {
	Commands []action.Command `json:"commands"`
}

// Request bounds: every request body is read through http.MaxBytesReader
// capped at maxBodyBytes, and a batch may name at most maxBatchCommands
// commands.
const (
	maxBodyBytes     = 4 << 20
	maxBatchCommands = 4096
)

// errBatchTooLarge rejects a batch naming more than maxBatchCommands
// commands.
var errBatchTooLarge = fmt.Errorf("gateway: batch exceeds %d commands", maxBatchCommands)

// decodeBatch reads one CommandBatch from r with the semantics of
// json.Decoder.Decode, except that it stops with errBatchTooLarge as
// soon as the commands array passes maxBatchCommands — an oversized
// batch is refused before it is materialized, not after.
func decodeBatch(r io.Reader) (CommandBatch, error) {
	var b CommandBatch
	dec := json.NewDecoder(r)
	tok, err := dec.Token()
	if err != nil || tok == nil { // a JSON null decodes to the empty batch
		return b, err
	}
	if tok != json.Delim('{') {
		return b, errors.New("gateway: command batch must be a JSON object")
	}
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return b, err
		}
		if key, _ := tok.(string); !strings.EqualFold(key, "commands") {
			var skip json.RawMessage
			if err := dec.Decode(&skip); err != nil {
				return b, err
			}
			continue
		}
		if b.Commands, err = decodeCommands(dec); err != nil {
			return b, err
		}
	}
	_, err = dec.Token() // the closing '}'
	return b, err
}

// decodeCommands reads the value of a batch's "commands" key: null or
// an array of at most maxBatchCommands commands.
func decodeCommands(dec *json.Decoder) ([]action.Command, error) {
	tok, err := dec.Token()
	if err != nil || tok == nil {
		return nil, err
	}
	if tok != json.Delim('[') {
		return nil, errors.New("gateway: commands must be a JSON array")
	}
	cmds := []action.Command{}
	for dec.More() {
		if len(cmds) == maxBatchCommands {
			return nil, errBatchTooLarge
		}
		cmds = append(cmds, action.Command{})
		if err := dec.Decode(&cmds[len(cmds)-1]); err != nil {
			return nil, err
		}
	}
	_, err = dec.Token() // the closing ']'
	return cmds, err
}

// Outcome values of a CommandResult.
const (
	OutcomeOK      = "ok"      // checked, executed, post-checked
	OutcomeBlocked = "blocked" // a RABIT alert; Alert carries it
	OutcomeError   = "error"   // validation or execution failure
)

// CommandResult is one streamed verdict line.
type CommandResult struct {
	Seq     int        `json:"seq"`
	Cmd     string     `json:"cmd"`
	Outcome string     `json:"outcome"`
	Detail  string     `json:"detail,omitempty"`
	Alert   *AlertInfo `json:"alert,omitempty"`
}

// AlertInfo is the wire form of a raised safety alert.
type AlertInfo struct {
	Kind   string `json:"kind"`
	Device string `json:"device"`
	Seq    int    `json:"seq"`
	Detail string `json:"detail"`
}

// alertInfo converts an engine alert.
func alertInfo(a *core.Alert) *AlertInfo {
	return &AlertInfo{
		Kind:   a.Kind.Slug(),
		Device: a.Cmd.Device,
		Seq:    a.Cmd.Seq,
		Detail: a.Error(),
	}
}

// result maps one interceptor verdict onto the wire. seq is the
// sequence the interceptor stamped on the command — echoed both in the
// Seq field and in the rendered command string.
func result(cmd action.Command, seq int, err error) CommandResult {
	cmd.Seq = seq
	r := CommandResult{Seq: seq, Cmd: cmd.String(), Outcome: OutcomeOK}
	if err == nil {
		return r
	}
	r.Detail = err.Error()
	if a, ok := core.AsAlert(err); ok {
		r.Outcome = OutcomeBlocked
		r.Alert = alertInfo(a)
	} else {
		r.Outcome = OutcomeError
	}
	return r
}

// TenantStatus is one pooled lab's row on /v1/labs.
type TenantStatus struct {
	Lab      string `json:"lab"`
	Sessions int    `json:"sessions"`
	Alerts   int    `json:"alerts"`
	Stopped  string `json:"stopped,omitempty"`
	// Failed is the recovered panic that failed the tenant (see
	// ErrTenantFailed).
	Failed string `json:"failed,omitempty"`
	Ready  bool   `json:"ready"`
}

// ErrorBody is every non-2xx JSON body.
type ErrorBody struct {
	Error string `json:"error"`
}
