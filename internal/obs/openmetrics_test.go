package obs

import (
	"encoding/hex"
	"strings"
	"testing"
	"time"
)

// buildOMSnapshot assembles a registry exercising every family kind,
// both histogram units, and a trace exemplar.
func buildOMSnapshot(t *testing.T) Snapshot {
	t.Helper()
	r := NewRegistry("engine")
	r.Counter(CounterCommands).Add(7)
	r.Gauge("pipeline.depth").Set(3)

	evals := r.CounterFamily(FamilyRuleEvals, LabelRule)
	evals.Counter("general-1").Add(41)
	evals.Counter("hein-2").Add(12)
	lat := r.HistogramFamily(FamilyRuleEval, LabelRule)
	lat.Histogram("general-1").ObserveExemplar(3*time.Microsecond, rawTraceID(t, "0af7651916cd43dd8448eb211c80319c"))
	lat.Histogram("general-1").Observe(8 * time.Microsecond)
	margin := r.RatioHistogramFamily(FamilyRuleMargin, LabelRule)
	// Margin ratio 0.25 stored via the ns convention (m×1e9).
	margin.Histogram("general-1").Observe(time.Duration(0.25 * 1e9))
	return r.Snapshot()
}

// rawTraceID decodes a 32-char hex trace ID into the raw form
// ObserveExemplar takes.
func rawTraceID(t *testing.T, s string) [16]byte {
	t.Helper()
	var id [16]byte
	if n, err := hex.Decode(id[:], []byte(s)); err != nil || n != len(id) {
		t.Fatalf("bad trace ID %q: %v", s, err)
	}
	return id
}

func TestWriteOpenMetricsExposition(t *testing.T) {
	snap := buildOMSnapshot(t)
	slo := SLOSnapshot{Name: "alert-latency", Tenant: "lab-a", Objective: 0.99,
		ThresholdNS: int64(time.Millisecond),
		Windows:     []SLOWindowSnapshot{{Window: time.Minute, Good: 9, Bad: 1, BurnRate: 10}}}

	var sb strings.Builder
	WriteOpenMetrics(&sb, []Snapshot{snap}, []SLOSnapshot{slo})
	text := sb.String()

	for _, want := range []string{
		// Family metadata names differ from counter sample names.
		"# TYPE rabit_commands counter\n",
		`rabit_commands_total{reg="engine"} 7`,
		"# TYPE rabit_rule_evals counter\n",
		`rabit_rule_evals_total{reg="engine",rule="general-1"} 41`,
		`rabit_rule_evals_total{reg="engine",rule="hein-2"} 12`,
		// Duration family exposes in seconds with the trace exemplar on
		// the 3µs observation's bucket (≤5e-06).
		"# TYPE rabit_rule_eval_seconds histogram\n",
		`rabit_rule_eval_seconds_bucket{reg="engine",rule="general-1",le="5e-06"} 1 # {trace_id="0af7651916cd43dd8448eb211c80319c"} 3e-06`,
		`rabit_rule_eval_seconds_count{reg="engine",rule="general-1"} 2`,
		// Ratio family converts the ns encoding back to the raw margin:
		// a 0.25 margin lands in the ≤0.5 bucket.
		"# TYPE rabit_rule_margin_ratio histogram\n",
		`rabit_rule_margin_ratio_bucket{reg="engine",rule="general-1",le="0.5"} 1`,
		`rabit_rule_margin_ratio_sum{reg="engine",rule="general-1"} 0.25`,
		// Tenant-scoped SLO series.
		`rabit_slo_objective{slo="alert-latency",tenant="lab-a"} 0.99`,
		`rabit_slo_burn_rate{slo="alert-latency",tenant="lab-a",window="1m0s"} 10`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q\n%s", want, text)
		}
	}
	if !strings.HasSuffix(text, "# EOF\n") {
		t.Fatalf("exposition does not end with # EOF:\n%s", text)
	}
	// The untraced 8µs observation's bucket must not carry an exemplar.
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, `le="1e-05"`) && strings.Contains(line, "rule_eval") && strings.Contains(line, "# {") {
			t.Errorf("exemplar on an untraced bucket: %q", line)
		}
	}
	if err := ValidateOpenMetrics([]byte(text)); err != nil {
		t.Fatalf("own exposition fails validation: %v\n%s", err, text)
	}
}

// Hostile, tenant-authored rule IDs must escape into legal label values
// and survive the validator's unescape round trip. The exemplar's trace
// ID carries the same hostile bytes raw; it renders as hex.
func TestWriteOpenMetricsHostileLabels(t *testing.T) {
	hostile := "rule \"A\"\\east\nwing"
	r := NewRegistry("lab \"A\"\\east\nwing")
	r.CounterFamily(FamilyRuleFires, LabelRule).Counter(hostile).Inc()
	r.HistogramFamily(FamilyRuleEval, LabelRule).Histogram(hostile).
		ObserveExemplar(time.Microsecond, [16]byte{'"', '\\', '\n', 'w', 'i', 'n', 'g'})

	var sb strings.Builder
	WriteOpenMetrics(&sb, []Snapshot{r.Snapshot()}, nil)
	text := sb.String()
	if err := ValidateOpenMetrics([]byte(text)); err != nil {
		t.Fatalf("hostile labels break the grammar: %v\n%s", err, text)
	}
	want := `rule="rule \"A\"\\east\nwing"`
	if !strings.Contains(text, want) {
		t.Errorf("exposition missing escaped label %s\n%s", want, text)
	}
	if strings.Contains(text, "\nwing") {
		t.Errorf("raw newline leaked into the exposition:\n%s", text)
	}
	if !strings.Contains(text, `# {trace_id="225c0a77696e67000000000000000000"} 1e-06`) {
		t.Errorf("exposition missing the hex-rendered exemplar\n%s", text)
	}
}

func TestValidateOpenMetricsRejects(t *testing.T) {
	cases := []struct {
		name string
		doc  string
		want string // substring of the error
	}{
		{"missing EOF",
			"# TYPE a counter\na_total 1\n",
			"missing # EOF"},
		{"content after EOF",
			"# EOF\na 1\n",
			"content after # EOF"},
		{"undeclared family",
			"orphan_total 1\n# EOF\n",
			"no declared family"},
		{"counter sample without _total",
			"# TYPE a counter\na 1\n# EOF\n",
			"counter family"},
		{"gauge sample with suffix",
			"# TYPE g gauge\ng_total 1\n# EOF\n",
			"cannot have sample"},
		{"bucket without le",
			"# TYPE h histogram\nh_bucket{x=\"1\"} 1\n# EOF\n",
			"no le label"},
		{"bucket with unparsable le",
			"# TYPE h histogram\nh_bucket{le=\"wat\"} 1\n# EOF\n",
			"invalid le value"},
		{"exemplar on a gauge",
			"# TYPE g gauge\ng 1 # {trace_id=\"t\"} 1\n# EOF\n",
			"exemplar on a sample"},
		{"mid-document empty line",
			"# TYPE a counter\n\na_total 1\n# EOF\n",
			"empty line"},
		{"duplicate label",
			"# TYPE g gauge\ng{x=\"1\",x=\"2\"} 1\n# EOF\n",
			"duplicate label"},
		{"duplicate TYPE",
			"# TYPE g gauge\n# TYPE g counter\n# EOF\n",
			"duplicate TYPE"},
		{"unknown type",
			"# TYPE g blob\n# EOF\n",
			"unknown metric type"},
		{"unescaped value",
			"# TYPE g gauge\ng{x=\"a\"b\"} 1\n# EOF\n",
			"label"},
		{"bad escape",
			"# TYPE g gauge\ng{x=\"a\\t\"} 1\n# EOF\n",
			"invalid escape"},
		{"non-numeric value",
			"# TYPE g gauge\ng wat\n# EOF\n",
			"invalid sample value"},
		{"freeform comment",
			"# scraped at noon\n# EOF\n",
			"metadata"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := ValidateOpenMetrics([]byte(tc.doc))
			if err == nil {
				t.Fatalf("validator accepted %q", tc.doc)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}

	// The +Inf bucket and exemplars on _bucket/_total are legal.
	ok := "# TYPE h histogram\n" +
		"h_bucket{le=\"+Inf\"} 1 # {trace_id=\"t\"} 0.5\n" +
		"h_sum 0.5\nh_count 1\n" +
		"# TYPE c counter\nc_total 1 # {trace_id=\"t\"} 1\n" +
		"# EOF\n"
	if err := ValidateOpenMetrics([]byte(ok)); err != nil {
		t.Fatalf("validator rejected a legal document: %v", err)
	}
}

func TestReadBuild(t *testing.T) {
	b := ReadBuild()
	if b.Go == "" {
		t.Fatal("build info missing the Go version")
	}
	if s := b.String(); s == "" {
		t.Fatal("BuildInfo.String() empty")
	}
	if again := ReadBuild(); again != b {
		t.Fatal("ReadBuild is not stable across calls")
	}
}
