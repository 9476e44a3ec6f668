package eval

import "testing"

// TestMotionCold smoke-runs the cold benchmark at reduced scale and pins
// its equivalence obligations: every mode must produce the identical
// accept count on the identical streams (the verdicts are pinned
// string-for-string by the sim property tests; the benchmark re-checks
// the aggregate so a wiring bug here cannot silently compare different
// workloads), the indexed mode must actually exercise the index, and the
// plan cache must be warm.
func TestMotionCold(t *testing.T) {
	rows, err := MotionCold(ColdOptions{Checks: 40, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("want 4 rows, got %d", len(rows))
	}
	accepts := map[string]int{}
	for _, r := range rows {
		if r.Checks != 80 {
			t.Errorf("%s/%s: want 80 checks, got %d", r.Mode, r.Context, r.Checks)
		}
		if prev, ok := accepts[r.Context]; ok && prev != r.Accepts {
			t.Errorf("%s/%s: accepts %d diverges from %d on the same stream",
				r.Mode, r.Context, r.Accepts, prev)
		}
		accepts[r.Context] = r.Accepts
		if r.PlanHits == 0 {
			t.Errorf("%s/%s: plan cache never hit — warmup broken", r.Mode, r.Context)
		}
		switch r.Mode {
		case ColdModeIndexed:
			if r.Candidates == 0 {
				t.Errorf("%s/%s: index returned no candidates", r.Mode, r.Context)
			}
			if r.Rebuilds < 1 {
				t.Errorf("%s/%s: index never built", r.Mode, r.Context)
			}
		case ColdModeBrute:
			if r.Pruned != 0 || r.Kept != 0 {
				t.Errorf("%s/%s: brute mode should not prune (got %d/%d)",
					r.Mode, r.Context, r.Pruned, r.Kept)
			}
		}
	}
	if accepts[ColdContextSerial] != accepts[ColdContextSharded] {
		t.Errorf("serial accepts %d != sharded accepts %d",
			accepts[ColdContextSerial], accepts[ColdContextSharded])
	}
	if accepts[ColdContextSerial] == 0 {
		t.Error("no check accepted — target streams are degenerate")
	}
}

// BenchmarkColdSpeedup is the cold-path gate: b.N pairs of serial
// brute and indexed runs over one pre-warmed plan cache, alternating
// which mode runs first, reporting the median per-pair ratio of p95
// check latency. A single pair reads anywhere from about 1.0x to 2.4x
// on a 2-core host, hence the median. Brute is the property tests'
// oracle, so every pair must also agree on the accept count.
func BenchmarkColdSpeedup(b *testing.B) {
	lab, streams, pc, err := coldSetup(ColdOptions{Checks: 150, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	run := func(mode string) *ColdResult {
		r, err := runCold(lab, mode, ColdContextSerial, streams, pc)
		if err != nil {
			b.Fatal(err)
		}
		return r
	}
	ratios := make([]float64, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var brute, indexed *ColdResult
		if i%2 == 0 {
			brute = run(ColdModeBrute)
			indexed = run(ColdModeIndexed)
		} else {
			indexed = run(ColdModeIndexed)
			brute = run(ColdModeBrute)
		}
		if brute.Accepts != indexed.Accepts {
			b.Fatalf("pair %d: brute accepts %d, indexed %d", i, brute.Accepts, indexed.Accepts)
		}
		ratios = append(ratios, ColdSpeedup([]ColdResult{*brute, *indexed}))
	}
	b.StopTimer()
	b.ReportMetric(median(ratios), "cold-p95-speedup-x")
}
