package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// runSpread runs one workload k times, one process after another with
// seeds 1..k, and prints the median and quartiles of every metric and the
// interquartile range as a share of the median — the figure each
// end-to-end bound in BENCHMARK.json is set against.
func runSpread(name string, k int, seconds float64, traced int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	var failedShare []float64
	for seed := 1; seed <= k; seed++ {
		cmd := exec.Command(self, "-workload", name, "-seed", strconv.Itoa(seed),
			"-seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "-trace", strconv.Itoa(traced))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var r result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		if !r.Correct {
			return fmt.Errorf("seed %d: output check failed", seed)
		}
		failedShare = append(failedShare, float64(r.Failed)/float64(r.Attempted))
		for n, m := range r.Metrics {
			values[n] = append(values[n], m.Value)
			units[n] = m.Unit
		}
		fmt.Fprintf(os.Stderr, "spread %s seed %d done\n", name, seed)
	}
	names := make([]string, 0, len(values))
	for n := range values {
		names = append(names, n)
	}
	sort.Strings(names)
	var b bytes.Buffer
	fmt.Fprintf(&b, "spread of %s over %d runs (seeds 1..%d, %gs each, trace=%d)\n", name, k, k, seconds, traced)
	fmt.Fprintf(&b, "%-34s %12s %12s %12s %8s %s\n", "metric", "q1", "median", "q3", "iqr/med", "unit")
	for _, n := range names {
		q1, med, q3 := quartiles(values[n])
		rel := 0.0
		if med != 0 {
			rel = (q3 - q1) / med
		}
		fmt.Fprintf(&b, "%-34s %12.4f %12.4f %12.4f %8.4f %s\n", n, q1, med, q3, rel, units[n])
	}
	fmt.Fprintf(&b, "per run (seeds 1..%d):\n", k)
	for _, n := range names {
		fmt.Fprintf(&b, "%-34s", n)
		for _, v := range values[n] {
			fmt.Fprintf(&b, " %.4g", v)
		}
		fmt.Fprintln(&b)
	}
	fmt.Fprintf(&b, "failed share: max %.6f\n", slices.Max(failedShare))
	_, err = os.Stdout.Write(b.Bytes())
	return err
}

// quartiles returns the first quartile, median and third quartile by the
// "exclusive" method of Python's statistics.quantiles(xs, n=4), which is
// how the bounds are checked.
func quartiles(xs []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	if len(d) < 2 {
		if len(d) == 1 {
			return d[0], d[0], d[0]
		}
		return 0, 0, 0
	}
	ld := len(d)
	m := ld + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}
