package recorder

import (
	"encoding/hex"
	"sort"
	"strconv"
	"strings"

	"repro/internal/action"
	"repro/internal/state"
)

// Record kinds.
const (
	// KindCommand is one intercepted command's pass through the Fig. 2
	// algorithm.
	KindCommand = "command"
	// KindSpeculation is one run of the single-flight lookahead worker.
	KindSpeculation = "speculation"
	// KindSnapshot is a manually filed window freeze — no alert fired;
	// an external judge (the campaign oracle) decided the window is
	// evidence. See Recorder.FileSnapshot.
	KindSnapshot = "snapshot"
)

// Pipeline paths (Record.Path).
const (
	// PathGlobal is the engine's global single-lock pipeline.
	PathGlobal = "global"
	// PathSharded is the per-device sharded pipeline.
	PathSharded = "sharded"
	// PathSpeculative marks lookahead records (never an on-path check).
	PathSpeculative = "speculative"
)

// Verdict sources: where a trajectory verdict came from.
const (
	// SourceColdSolve: the simulator planned and swept the motion on the
	// critical path.
	SourceColdSolve = "cold_solve"
	// SourceCacheHit: the verdict was served from the epoch-keyed verdict
	// cache, originally computed by an earlier on-path check.
	SourceCacheHit = "cache_hit"
	// SourceSpeculative: the verdict was served from the cache and had
	// been pre-computed by the speculative lookahead worker — the record's
	// SpecCorr names the speculation that produced it.
	SourceSpeculative = "speculative"
)

// Verdict is a trajectory verdict's provenance: where it came from and
// the deck epochs it was validated and committed under. A divergence
// between the two epochs on a passing command is exactly the window the
// epoch-keyed cache exists to close, so forensics wants both.
type Verdict struct {
	Source string `json:"source,omitempty"`
	// EpochAtValidation is the deck epoch the trajectory check paired
	// with the model it read.
	EpochAtValidation uint64 `json:"epoch_at_validation,omitempty"`
	// EpochAtCommit is the deck epoch after the command's After committed
	// (post any bump the commit itself caused).
	EpochAtCommit uint64 `json:"epoch_at_commit,omitempty"`
	// SpecCorr is the correlation ID of the speculation whose cached
	// verdict this check consumed (Source == SourceSpeculative).
	SpecCorr string `json:"spec_corr,omitempty"`
}

// Spans are the per-stage wall-clock timings of one record, mirroring
// the engine's stage histograms plus the interceptor's execute span.
type Spans struct {
	ValidateNS   int64 `json:"validate_ns,omitempty"`
	TrajectoryNS int64 `json:"trajectory_ns,omitempty"`
	FetchNS      int64 `json:"fetch_ns,omitempty"`
	CompareNS    int64 `json:"compare_ns,omitempty"`
	ExecNS       int64 `json:"exec_ns,omitempty"`
}

// Record is one flight-recorder entry — the black box's unit of capture.
// State views are rendered to bounded string maps at capture time so a
// record can never retain (or observe mutations of) live engine state.
type Record struct {
	// Ord is the recorder-global insertion order (1-based).
	Ord uint64 `json:"ord"`
	// Corr is the record's correlation ID: "c-…" for commands, "s-…" for
	// speculations.
	Corr string `json:"corr"`
	// Parent links a speculation to the command whose execution window
	// it overlapped (the Hint caller).
	Parent string `json:"parent,omitempty"`
	Kind   string `json:"kind"`
	Path   string `json:"path,omitempty"`

	Seq    int    `json:"seq,omitempty"`
	Device string `json:"device,omitempty"`
	Action string `json:"action,omitempty"`
	// Cmd is the rendered command. Rendering costs a string per
	// record, so live records carry the raw command (cmd below) instead
	// and Cmd is materialized only when a window is snapshotted.
	Cmd string `json:"cmd,omitempty"`
	// cmd backs lazy Cmd rendering; hasCmd guards the zero Command.
	cmd    action.Command
	hasCmd bool
	// TNS is the lab clock when the record opened (command issue time).
	TNS int64 `json:"t_ns,omitempty"`
	// Trace is the causal trace ID (32 hex chars) of the run that
	// produced this record — the key linking a bundle to its retained
	// trace tree (see internal/obs/trace). Empty when tracing is off.
	// Like Cmd, live records carry the raw ID (trace below, set with
	// SetTrace) and Trace is rendered only when a window is snapshotted.
	Trace string `json:"trace_id,omitempty"`
	trace [16]byte

	// Rules are the rule IDs the validation stage evaluated for this
	// command (its label bucket filtered to matching devices).
	Rules []string `json:"rules,omitempty"`
	// Pre is the read-scoped model view the rules validated against.
	Pre map[string]string `json:"pre,omitempty"`
	// Expected is the S_expected overlay's edits (deletes render as ∅).
	Expected map[string]string `json:"expected,omitempty"`
	// Observed is the post-execution fetch, scoped like Pre.
	Observed map[string]string `json:"observed,omitempty"`

	Verdict Verdict `json:"verdict"`
	Spans   Spans   `json:"spans"`

	// Outcome/ExecNS are the interceptor's annotation ("ok", "blocked",
	// "error"); empty for records it never settled.
	Outcome string `json:"outcome,omitempty"`
	// SettledBy names the batch-mate whose After settled this command
	// (concurrent global batches share one post-state check).
	SettledBy string `json:"settled_by,omitempty"`

	AlertKind string `json:"alert_kind,omitempty"`
	Alert     string `json:"alert,omitempty"`
	// AlertTNS is the lab clock at the alert; AlertTNS−TNS is the
	// detection latency forensics aggregates.
	AlertTNS int64 `json:"alert_t_ns,omitempty"`
	// Violations are violated rule IDs (invalid-command alerts);
	// Mismatches are diverged state keys (malfunction alerts).
	Violations []string `json:"violations,omitempty"`
	Mismatches []string `json:"mismatches,omitempty"`
}

// SetTrace stamps the record with its causal trace ID. The hex form
// (Trace) is rendered only on snapshot, like Cmd.
func (rec *Record) SetTrace(id [16]byte) { rec.trace = id }

// render materializes Cmd and Trace from the stored raw command and
// trace ID. Only called on snapshot copies — live ring slots keep the
// cheap unrendered form.
func (rec *Record) render() {
	if rec.Cmd == "" && rec.hasCmd {
		rec.Cmd = rec.cmd.String()
	}
	if rec.Trace == "" && rec.trace != ([16]byte{}) {
		rec.Trace = hex.EncodeToString(rec.trace[:])
	}
}

// corrID renders a correlation ID: prefix, '-', n zero-padded to six
// digits ("%s-%06d"), appended in place because every command opens one.
func corrID(prefix string, n uint64) string {
	var buf [32]byte
	b := append(buf[:0], prefix...)
	b = append(b, '-')
	var digits [20]byte
	d := strconv.AppendUint(digits[:0], n, 10)
	for i := len(d); i < 6; i++ {
		b = append(b, '0')
	}
	b = append(b, d...)
	return string(b)
}

// sortRecords orders a window by global insertion order.
func sortRecords(recs []Record) {
	sort.Slice(recs, func(i, j int) bool { return recs[i].Ord < recs[j].Ord })
}

// ViewLimit bounds every captured state view: forensics wants the keys a
// check actually read, not a full deck dump per record.
const ViewLimit = 64

// argMatches reports whether any bracketed argument of k equals one of
// the ids, without the allocation Key.Args pays — this runs once per
// model key per captured view, the recorder's hottest loop.
func argMatches(k state.Key, ids []string) bool {
	s := string(k)
	for {
		i := strings.IndexByte(s, '[')
		if i < 0 {
			return false
		}
		s = s[i+1:]
		j := strings.IndexByte(s, ']')
		if j < 0 {
			return false
		}
		arg := s[:j]
		for _, id := range ids {
			if id != "" && id == arg {
				return true
			}
		}
		s = s[j+1:]
	}
}

// CaptureView renders the slice of a state view owned by the given IDs
// — plus exogenous sensor keys, which every path reads — as a bounded
// string map. The caller must hold whatever lock makes v stable.
func CaptureView(v state.View, ids []string) map[string]string {
	if v == nil {
		return nil
	}
	var out map[string]string
	v.Range(func(k state.Key, val state.Value) bool {
		if len(out) >= ViewLimit {
			return false
		}
		if !k.IsExogenous() && !argMatches(k, ids) {
			return true
		}
		if out == nil {
			out = make(map[string]string, 8)
		}
		out[string(k)] = val.String()
		return true
	})
	return out
}

// CaptureEdits renders an expectation overlay's accumulated edits.
// Deletes render as "∅". Nil-safe.
func CaptureEdits(o *state.Overlay) map[string]string {
	if o == nil {
		return nil
	}
	out := make(map[string]string)
	o.RangeEdits(func(k state.Key, v state.Value, present bool) bool {
		if len(out) >= ViewLimit {
			return false
		}
		if present {
			out[string(k)] = v.String()
		} else {
			out[string(k)] = "∅"
		}
		return true
	})
	if len(out) == 0 {
		return nil
	}
	return out
}
