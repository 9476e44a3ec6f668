// Command rabitbench is RABIT's end-to-end benchmark. One invocation runs
// one workload for a fixed time in this process and prints, as its last
// line, one JSON object with the operation counts, a correctness verdict,
// and the end-to-end metrics (or, with -trace 1, the per-layer metrics of
// a separate traced run).
//
// Usage:
//
//	rabitbench -workload gateway_fleet|deck_motion|campaign -seed N -seconds S -trace 0|1
//	rabitbench -spread K -workload W -seconds S [-trace 0|1]   # K runs, median and quartiles
//	rabitbench -make-inputs                                     # regenerate deck_motion inputs
//
// See README.md for the workloads, metrics and reference figures.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/obs"
)

// workload runs one workload for the given time and returns its result.
// traced selects the per-layer run.
type workload func(cfg runConfig) (*result, error)

var workloads = map[string]workload{
	"gateway_fleet": runGateway,
	"deck_motion":   runDeckMotion,
	"campaign":      runCampaign,
}

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	measure time.Duration
	traced  bool
}

func main() {
	var (
		name       = flag.String("workload", "", "gateway_fleet | deck_motion | campaign")
		seed       = flag.Int64("seed", 1, "workload seed")
		seconds    = flag.Float64("seconds", 20, "measured time per run")
		traced     = flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
		spread     = flag.Int("spread", 0, "run the workload this many times (seeds 1..K) and print quartiles")
		makeInputs = flag.Bool("make-inputs", false, "regenerate the deck_motion input streams")
	)
	flag.Parse()
	if *makeInputs {
		if err := makeDeckInputs(inputDir()); err != nil {
			fmt.Fprintln(os.Stderr, "rabitbench:", err)
			os.Exit(1)
		}
		return
	}
	if _, ok := workloads[*name]; !ok {
		fmt.Fprintf(os.Stderr, "rabitbench: unknown workload %q (gateway_fleet, deck_motion, campaign)\n", *name)
		os.Exit(2)
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(os.Stderr, "rabitbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	if *spread > 0 {
		if err := runSpread(*name, *spread, *seconds, *traced); err != nil {
			fmt.Fprintln(os.Stderr, "rabitbench:", err)
			os.Exit(1)
		}
		return
	}
	printHeader(*name, *seed, *seconds, *traced)
	res, err := workloads[*name](runConfig{
		seed:    *seed,
		measure: time.Duration(*seconds * float64(time.Second)),
		traced:  *traced == 1,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "rabitbench:", err)
		os.Exit(1)
	}
	if *traced == 1 {
		fillOffPath(res)
	}
	if err := res.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rabitbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "rabitbench: output check failed:", res.why)
		os.Exit(1)
	}
}

// printHeader records the run's conditions: noise on this host depends on
// the core count and scheduler, so every run names them.
func printHeader(name string, seed int64, seconds float64, traced int) {
	b := obs.ReadBuild()
	rev := b.Revision
	if rev == "" {
		rev = "unknown"
	}
	if b.Dirty {
		rev += "-dirty"
	}
	fmt.Printf("# rabitbench workload=%s seed=%d seconds=%g trace=%d\n", name, seed, seconds, traced)
	fmt.Printf("# cores=%d gomaxprocs=%d go=%s revision=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), rev)
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// why explains a failed output check; it is printed to stderr.
	why string
}

func newResult() *result { return &result{Correct: true, Metrics: map[string]metric{}} }

func (r *result) set(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }

// fail records a failed output check; the first reason is kept.
func (r *result) fail(err error) {
	if err == nil {
		return
	}
	if r.Correct {
		r.why = err.Error()
	}
	r.Correct = false
}

// print writes the human-readable metric lines and then the JSON line.
func (r *result) print(f *os.File) error {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(f, "# %-34s %14.4f %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	raw, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(f, string(raw))
	return err
}

// perLayer lists every per-layer metric (BENCHMARK.json's per_layer).
// Each traced run measures the layers on its workload's path.
var perLayer = []struct{ name, unit string }{
	// gateway_fleet
	{"gateway.handler_p50_us", "us"},
	{"gateway.transport_p50_us", "us"},
	{"gateway.self_us_per_req", "us"},
	{"gateway.rejected", "count"},
	{"trace.intercept_us_per_cmd", "us"},
	{"core.validate_us_per_cmd", "us"},
	{"core.fetch_us_per_cmd", "us"},
	{"core.compare_us_per_cmd", "us"},
	{"env.execute_us_per_cmd", "us"},
	// deck_motion
	{"trace.intercept_p50_us", "us"},
	{"core.check_p50_us", "us"},
	{"core.before_p50_us", "us"},
	{"core.after_p50_us", "us"},
	{"sim.trajectory_p50_us", "us"},
	{"sim.trajectory_p90_us", "us"},
	{"env.execute_p50_us", "us"},
	{"env.execute_p90_us", "us"},
	{"env.fetch_p50_us", "us"},
	{"kin.plan_hit_ratio", "ratio"},
	{"sim.verdict_hit_ratio", "ratio"},
	{"sim.candidates_per_check", "count"},
	{"sim.pruned_ratio", "ratio"},
	// campaign
	{"campaign.deck_build_s", "s"},
	{"campaign.generate_us", "us"},
	{"world.oracle_replay_p50_us", "us"},
	{"core.protected_replay_p50_us", "us"},
	{"campaign.stack_reset_p50_us", "us"},
	{"kin.world_plan_hit_ratio", "ratio"},
	{"kin.sim_plan_hit_ratio", "ratio"},
	// every workload
	{"bench.untraced_ops_per_s", "op/s"},
	{"bench.traced_ops_per_s", "op/s"},
	{"bench.trace_overhead_ops_per_s", "op/s"},
}

// fillOffPath reports 0 for the layers a workload's path does not
// include, so every traced run prints every per-layer metric.
func fillOffPath(r *result) {
	for _, m := range perLayer {
		if _, ok := r.Metrics[m.name]; !ok {
			r.set(m.name, 0, m.unit)
		}
	}
}

// errNoInputs is returned when the committed deck_motion streams are
// missing.
var errNoInputs = errors.New("deck_motion inputs not found; run with -make-inputs")
