package obs

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// The Prometheus text-format exposition (/metrics/prom). The flat
// /metrics rendering predates it and keeps its ad-hoc shape for existing
// consumers; this endpoint speaks the standard text format 0.0.4 —
// # HELP/# TYPE lines, counters suffixed _total, histograms as real
// _bucket / _sum / _count series with le labels in seconds — so an
// off-the-shelf Prometheus scrape ingests RABIT's registries unmodified.

// promMetricsText renders the group's registries plus its SLO set in
// the Prometheus text exposition format. A scraper that negotiates
// OpenMetrics via the Accept header gets the OpenMetrics rendering —
// same series, plus per-bucket trace exemplars and the # EOF marker —
// while the default stays byte-compatible text format 0.0.4.
func (g *Group) promMetricsText(w http.ResponseWriter, r *http.Request) {
	if r != nil && strings.Contains(r.Header.Get("Accept"), "application/openmetrics-text") {
		w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
		WriteOpenMetrics(w, g.Snapshots(), g.SLOSnapshots())
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	WritePromText(w, g.Snapshots())
	WritePromSLOs(w, g.SLOSnapshots())
}

// escapeLabel escapes a label value per the exposition format: exactly
// backslash, double-quote, and line-feed — no more (Go's %q would also
// escape tabs and non-printables, which Prometheus parsers take
// literally, silently changing the label value).
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var sb strings.Builder
	sb.Grow(len(v) + 8)
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			sb.WriteString(`\\`)
		case '"':
			sb.WriteString(`\"`)
		case '\n':
			sb.WriteString(`\n`)
		default:
			sb.WriteByte(v[i])
		}
	}
	return sb.String()
}

// escapeHelp escapes a # HELP text: backslash and line-feed only, per
// the format.
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// promFamily accumulates one metric family's samples so each family
// renders under a single # HELP/# TYPE header pair even when several
// registries carry the instrument.
type promFamily struct {
	typ   string // "counter" | "gauge" | "histogram"
	help  string
	lines []string
}

// helpText maps sanitized family names to # HELP strings; families not
// listed fall back to a generic line. Kept deliberately small — the
// point of HELP is orientation, not documentation.
var helpText = map[string]string{
	"rabit_commands_total":                   "Commands fully checked by the engine (Before and After).",
	"rabit_check_ns_total":                   "Cumulative safety-check overhead in nanoseconds.",
	"rabit_before_validate_seconds":          "Rule validation stage latency.",
	"rabit_before_trajectory_seconds":        "Trajectory validation stage latency.",
	"rabit_after_fetch_seconds":              "Post-state fetch stage latency.",
	"rabit_after_compare_seconds":            "Post-state comparison stage latency.",
	"rabit_intercept_seconds":                "End-to-end interception latency per command.",
	"rabit_execute_seconds":                  "Device execution latency per command.",
	"rabit_slo_objective":                    "SLO objective (fraction of observations that must be good).",
	"rabit_slo_threshold_seconds":            "SLO threshold under which an observation counts as good.",
	"rabit_slo_good":                         "Good observations inside the rolling window.",
	"rabit_slo_bad":                          "Bad observations inside the rolling window.",
	"rabit_slo_burn_rate":                    "Error-budget burn rate over the rolling window (1.0 = at objective).",
	"rabit_traces_started_total":             "Traces opened by the causal tracer.",
	"rabit_traces_retained_total":            "Traces kept by the tail-sampling decision.",
	"rabit_traces_sampled_out_total":         "Non-alert traces dropped by the tail-sampling decision.",
	"rabit_trace_spans_dropped_total":        "Spans lost to per-trace ring bounds or finished traces.",
	"rabit_trace_export_errors_total":        "Retained traces the exporter failed to write.",
	"rabit_rule_evals_total":                 "Rule evaluations by rule ID.",
	"rabit_rule_fires_total":                 "Rule violations raised by rule ID.",
	"rabit_rule_eval_seconds":                "Per-rule evaluation latency.",
	"rabit_rule_margin_ratio":                "Near-miss margin on non-firing evaluations (0 = at the violation threshold).",
	"rabit_gateway_requests_total":           "Gateway command-stream requests by lab tenant.",
	"rabit_gateway_errors_total":             "Gateway request errors by lab tenant.",
	"rabit_gateway_request_seconds":          "Gateway request duration by lab tenant.",
	"rabit_gateway_queue_depth":              "Admission-queue slots in use by lab tenant.",
	"rabit_gateway_rejections_total":         "Admission rejections (backpressure 429s) by lab tenant.",
	"rabit_gateway_panics_total":             "Panics recovered at a lab tenant's session boundary; each fails the tenant.",
	"rabit_gateway_sessions":                 "Active sessions by lab tenant.",
	"rabit_gateway_slow_client_aborts_total": "Verdict streams aborted by the slow-client write deadline.",
	"rabit_campaign_total":                   "Campaign scenarios planned.",
	"rabit_campaign_done":                    "Campaign scenarios completed so far.",
	"rabit_campaign_detected":                "Campaign unsafe injections detected so far.",
	"rabit_campaign_missed":                  "Campaign unsafe injections missed so far.",
	"rabit_campaign_false_alarms":            "Campaign false alarms so far.",
	"rabit_campaign_scen_per_sec_milli":      "Campaign throughput in milli-scenarios per second.",
	"rabit_campaign_eta_seconds":             "Estimated seconds until the campaign completes.",
	"rabit_campaign_worker_done":             "Campaign scenarios completed by worker.",
}

func helpFor(name string) string {
	if h, ok := helpText[name]; ok {
		return h
	}
	return "RABIT metric " + name + "."
}

// WritePromText renders snapshots in the Prometheus text format. Metric
// names are stable: "rabit_" + the sanitized instrument name, counters
// suffixed _total, histograms suffixed _seconds (durations convert from
// nanoseconds). Every series carries a reg label naming its registry's
// scrape alias; label values are escaped per the format.
func WritePromText(w io.Writer, snaps []Snapshot) {
	fams := map[string]*promFamily{}
	family := func(name, typ string) *promFamily {
		f, ok := fams[name]
		if !ok {
			f = &promFamily{typ: typ, help: helpFor(name)}
			fams[name] = f
		}
		return f
	}
	for _, s := range snaps {
		reg := escapeLabel(s.Name)
		for _, c := range s.Counters {
			name := "rabit_" + sanitize(c.Name) + "_total"
			f := family(name, "counter")
			f.lines = append(f.lines, fmt.Sprintf("%s{reg=\"%s\"} %d", name, reg, c.Value))
		}
		for _, g := range s.Gauges {
			name := "rabit_" + sanitize(g.Name)
			f := family(name, "gauge")
			f.lines = append(f.lines, fmt.Sprintf("%s{reg=\"%s\"} %d", name, reg, g.Value))
		}
		bounds := BucketBoundsNS()
		for _, h := range s.Histograms {
			name := "rabit_" + sanitize(h.Name) + "_seconds"
			f := family(name, "histogram")
			cum := h.CumCounts
			if cum == nil {
				// An empty histogram still exposes a complete series.
				cum = make([]int64, len(bounds)+1)
			}
			for i, b := range bounds {
				f.lines = append(f.lines, fmt.Sprintf("%s_bucket{reg=\"%s\",le=\"%s\"} %d",
					name, reg, promSeconds(b), cum[i]))
			}
			f.lines = append(f.lines, fmt.Sprintf("%s_bucket{reg=\"%s\",le=\"+Inf\"} %d",
				name, reg, cum[len(cum)-1]))
			f.lines = append(f.lines, fmt.Sprintf("%s_sum{reg=\"%s\"} %s",
				name, reg, promSeconds(h.SumNS)))
			f.lines = append(f.lines, fmt.Sprintf("%s_count{reg=\"%s\"} %d", name, reg, h.Count))
		}
		for _, fam := range s.Families {
			key := sanitize(fam.Key)
			switch fam.Kind {
			case KindCounter:
				name := "rabit_" + sanitize(fam.Name) + "_total"
				f := family(name, "counter")
				for _, c := range fam.Counters {
					f.lines = append(f.lines, fmt.Sprintf("%s{reg=\"%s\",%s=\"%s\"} %d",
						name, reg, key, escapeLabel(c.Name), c.Value))
				}
			case KindGauge:
				name := "rabit_" + sanitize(fam.Name)
				f := family(name, "gauge")
				for _, gv := range fam.Gauges {
					f.lines = append(f.lines, fmt.Sprintf("%s{reg=\"%s\",%s=\"%s\"} %d",
						name, reg, key, escapeLabel(gv.Name), gv.Value))
				}
			case KindHistogram:
				unit := fam.Unit
				if unit == "" {
					unit = UnitSeconds
				}
				name := "rabit_" + sanitize(fam.Name) + "_" + sanitize(unit)
				f := family(name, "histogram")
				for _, h := range fam.Histograms {
					lv := escapeLabel(h.Name)
					cum := h.CumCounts
					if cum == nil {
						cum = make([]int64, len(bounds)+1)
					}
					for i, b := range bounds {
						f.lines = append(f.lines, fmt.Sprintf("%s_bucket{reg=\"%s\",%s=\"%s\",le=\"%s\"} %d",
							name, reg, key, lv, promSeconds(b), cum[i]))
					}
					f.lines = append(f.lines, fmt.Sprintf("%s_bucket{reg=\"%s\",%s=\"%s\",le=\"+Inf\"} %d",
						name, reg, key, lv, cum[len(cum)-1]))
					f.lines = append(f.lines, fmt.Sprintf("%s_sum{reg=\"%s\",%s=\"%s\"} %s",
						name, reg, key, lv, promSeconds(h.SumNS)))
					f.lines = append(f.lines, fmt.Sprintf("%s_count{reg=\"%s\",%s=\"%s\"} %d",
						name, reg, key, lv, h.Count))
				}
			}
		}
	}
	writeFamilies(w, fams)
}

// WritePromSLOs renders the SLO group: objective and threshold as
// per-SLO gauges, plus good/bad totals and the burn rate per rolling
// window.
func WritePromSLOs(w io.Writer, slos []SLOSnapshot) {
	if len(slos) == 0 {
		return
	}
	fams := map[string]*promFamily{}
	family := func(name string) *promFamily {
		f, ok := fams[name]
		if !ok {
			f = &promFamily{typ: "gauge", help: helpFor(name)}
			fams[name] = f
		}
		return f
	}
	for _, s := range slos {
		// Tenant-scoped SLOs carry the tenant label right after slo, so a
		// gateway's per-lab burn rates are distinct series; global SLOs
		// render exactly as before.
		lbl := fmt.Sprintf("slo=\"%s\"", escapeLabel(s.Name))
		if s.Tenant != "" {
			lbl += fmt.Sprintf(",tenant=\"%s\"", escapeLabel(s.Tenant))
		}
		f := family("rabit_slo_objective")
		f.lines = append(f.lines, fmt.Sprintf("rabit_slo_objective{%s} %s",
			lbl, strconv.FormatFloat(s.Objective, 'g', -1, 64)))
		f = family("rabit_slo_threshold_seconds")
		f.lines = append(f.lines, fmt.Sprintf("rabit_slo_threshold_seconds{%s} %s",
			lbl, promSeconds(s.ThresholdNS)))
		for _, ws := range s.Windows {
			win := escapeLabel(ws.Window.String())
			f = family("rabit_slo_good")
			f.lines = append(f.lines, fmt.Sprintf("rabit_slo_good{%s,window=\"%s\"} %d", lbl, win, ws.Good))
			f = family("rabit_slo_bad")
			f.lines = append(f.lines, fmt.Sprintf("rabit_slo_bad{%s,window=\"%s\"} %d", lbl, win, ws.Bad))
			f = family("rabit_slo_burn_rate")
			f.lines = append(f.lines, fmt.Sprintf("rabit_slo_burn_rate{%s,window=\"%s\"} %s",
				lbl, win, strconv.FormatFloat(ws.BurnRate, 'g', -1, 64)))
		}
	}
	writeFamilies(w, fams)
}

// writeFamilies emits families sorted by name, each under exactly one
// # HELP and one # TYPE line.
func writeFamilies(w io.Writer, fams map[string]*promFamily) {
	names := make([]string, 0, len(fams))
	for name := range fams {
		names = append(names, name)
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, name := range names {
		f := fams[name]
		fmt.Fprintf(&sb, "# HELP %s %s\n", name, escapeHelp(f.help))
		fmt.Fprintf(&sb, "# TYPE %s %s\n", name, f.typ)
		for _, line := range f.lines {
			sb.WriteString(line)
			sb.WriteByte('\n')
		}
	}
	io.WriteString(w, sb.String())
}

// promSeconds renders a nanosecond quantity as seconds, the unit
// Prometheus conventions require for durations.
func promSeconds(ns int64) string {
	return strconv.FormatFloat(float64(ns)/1e9, 'g', -1, 64)
}
