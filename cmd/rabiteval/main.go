// Command rabiteval regenerates the paper's evaluation artifacts: every
// table (I–V), the Fig. 5/6 bug replays, the Section II-C latency
// measurement, and the Section IV detection-rate progression.
//
// Usage:
//
//	rabiteval               run everything
//	rabiteval -table 5      run one table (1, 2, 3, 4, 5)
//	rabiteval -fig 5        run one figure experiment (5, 6)
//	rabiteval -latency      run the latency experiment
//	rabiteval -throughput   run the replay-throughput benchmark
//	rabiteval -motion       run the motion-planning fast-path benchmark
//	                        (-json FILE additionally writes the rows as JSON)
//	rabiteval -motion -cold run the cold-path adversarial benchmark: every
//	                        command targets a fresh point, so every check
//	                        runs the full sweep (legacy vs brute vs
//	                        indexed, serial and sharded)
//	rabiteval -campaign -n 10000 -seed 1 -workers 8
//	                        run a seeded safety campaign: n generated
//	                        fault-injection scenarios through pooled
//	                        engine stacks, with naive-construction and
//	                        worker-scaling calibration runs (-json FILE
//	                        writes the bench artifact; -incident-dir DIR
//	                        files a bundle per alert and per missed
//	                        unsafe injection; with -metrics addr the
//	                        server also streams live NDJSON progress on
//	                        /campaign and rabit_campaign_* gauges on
//	                        /metrics/prom)
//	rabiteval -incident-dir DIR
//	                        with the bug study (all, -table 5, -fig 5/6):
//	                        run the fully equipped configuration with the
//	                        flight recorder, writing one incident bundle
//	                        per detected bug under DIR
//	rabiteval -incidents DIR
//	                        forensics mode: reconstruct a human-readable
//	                        causal timeline for every incident bundle
//	                        under DIR and aggregate detection-latency
//	                        stats (no experiments run)
//	rabiteval -trace-out FILE
//	                        with the bug study: export every retained
//	                        causal trace (alert traces always retained)
//	                        as OTLP-JSON lines to FILE
//	rabiteval -trace FILE
//	                        render mode: print every trace in an
//	                        OTLP-JSON file as a cause-first span tree,
//	                        alert traces first (no experiments run)
//	rabiteval -rules        run the per-rule safety report: every rule
//	                        ranked by fire rate, eval latency, and
//	                        near-miss margin over the bug study
//	rabiteval -compare old.json new.json
//	                        diff two bench artifacts metric by metric;
//	                        non-zero exit when a gated metric regressed
//	                        beyond -threshold (default 50%)
//	rabiteval -validate-om SRC
//	                        validate one OpenMetrics exposition (file
//	                        path or http URL) against the grammar
//	rabiteval -version      print build provenance and exit
//
// With -metrics addr the process serves live telemetry while the
// experiments run: /debug/vars (expvar), /metrics (text exposition), and
// /debug/pprof (profiling). Every lab system the harness builds registers
// its registry there, so a long evaluation can be watched mid-flight.
// Off by default; existing behaviour is unchanged without the flag.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/env"
	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/obs/recorder"
	"repro/internal/rules"
)

// benchSchema versions the JSON envelope every benchmark mode writes.
// All four artifacts (-throughput, -motion, -motion -cold, -campaign)
// share it: config holds the knobs that produced the run, metrics the
// headline scalars CI gates read, rows the per-configuration detail.
const benchSchema = "rabit-bench/v1"

// writeBenchJSON persists one benchmark artifact in the shared envelope.
func writeBenchJSON(path, name string, config, metrics map[string]any, rows any) error {
	doc := struct {
		Schema    string         `json:"schema"`
		Name      string         `json:"name"`
		Timestamp string         `json:"timestamp"`
		Build     obs.BuildInfo  `json:"build"`
		Config    map[string]any `json:"config"`
		Metrics   map[string]any `json:"metrics"`
		Rows      any            `json:"rows,omitempty"`
	}{
		Schema:    benchSchema,
		Name:      name,
		Timestamp: time.Now().UTC().Format(time.RFC3339),
		Build:     obs.ReadBuild(),
		Config:    config,
		Metrics:   metrics,
		Rows:      rows,
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "rabiteval:", err)
		os.Exit(1)
	}
}

func run() error {
	table := flag.Int("table", 0, "regenerate one table (1-5)")
	fig := flag.Int("fig", 0, "regenerate one figure experiment (5 or 6)")
	latency := flag.Bool("latency", false, "run the latency experiment")
	throughput := flag.Bool("throughput", false, "run the replay-throughput benchmark (serial vs sharded)")
	gatewayMode := flag.Bool("gateway", false, "with -throughput, also measure the HTTP gateway deployment")
	labsN := flag.Int("labs", 4, "with -gateway, the number of lab tenants in the gateway pool")
	motion := flag.Bool("motion", false, "run the motion-planning fast-path benchmark (caches + speculation)")
	cold := flag.Bool("cold", false, "with -motion, run the cold-path adversarial benchmark instead (every command a fresh target)")
	campaignMode := flag.Bool("campaign", false, "run a seeded safety campaign (pooled engines, parallel workers)")
	campaignN := flag.Int("n", 10000, "with -campaign, the number of scenarios")
	workers := flag.Int("workers", 0, "with -campaign, parallel worker count (0 = GOMAXPROCS)")
	jsonPath := flag.String("json", "", "with -throughput, -motion, or -campaign, also write the results to this JSON file")
	pilot := flag.Bool("pilot", false, "run the pilot-study configuration-error experiment")
	rulesMode := flag.Bool("rules", false, "run the per-rule safety report: rank every rule by fire rate, eval latency, and near-miss margin")
	compareMode := flag.Bool("compare", false, "compare two bench JSON artifacts: rabiteval -compare old.json new.json (non-zero exit on regression)")
	compareThreshold := flag.Float64("threshold", 0.5, "with -compare, tolerated relative change in the bad direction (0.5 = 50%)")
	validateOM := flag.String("validate-om", "", "validate one OpenMetrics exposition (file path or http URL) and exit")
	version := flag.Bool("version", false, "print build provenance and exit")
	metricsAddr := flag.String("metrics", "", "serve /debug/vars, /metrics, and pprof on this address while experiments run")
	incidentDir := flag.String("incident-dir", "", "write flight-recorder incident bundles from the bug study here")
	incidents := flag.String("incidents", "", "analyze the incident bundles under this directory and exit")
	traceOut := flag.String("trace-out", "", "with the bug study, export retained causal traces (OTLP-JSON lines) here")
	traceIn := flag.String("trace", "", "render the span trees in this OTLP-JSON trace file and exit")
	seed := flag.Int64("seed", 1, "noise seed")
	flag.Parse()

	if *version {
		fmt.Println("rabiteval", obs.ReadBuild())
		return nil
	}
	if *compareMode {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare wants two artifacts: rabiteval -compare old.json new.json")
		}
		return compareRun(flag.Arg(0), flag.Arg(1), *compareThreshold)
	}
	if *validateOM != "" {
		return validateOMRun(*validateOM)
	}
	if *incidents != "" {
		return incidentsRun(*incidents)
	}
	if *traceIn != "" {
		out, err := eval.RenderTraceFile(*traceIn)
		if err != nil {
			return err
		}
		fmt.Print(out)
		return nil
	}

	if *metricsAddr != "" {
		srv, err := obs.Serve(*metricsAddr)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Printf("telemetry: http://%s/metrics (also /debug/vars, /debug/pprof)\n", srv.Addr)
	}

	if *rulesMode {
		return rulesRun(*seed)
	}
	if *campaignMode {
		return campaignRun(*campaignN, uint64(*seed), *workers, *jsonPath, *incidentDir)
	}

	all := *table == 0 && *fig == 0 && !*latency && !*throughput && !*motion && !*pilot && !*cold

	if all || *table == 1 {
		if err := tableI(*seed); err != nil {
			return err
		}
	}
	if all || *table == 2 {
		tableII()
	}
	if all || *table == 3 || *table == 4 {
		if err := tablesIIIandIV(*seed, *table); err != nil {
			return err
		}
	}
	var study *eval.BugStudy
	needStudy := all || *table == 5 || *fig == 5 || *fig == 6
	if needStudy {
		var err error
		study, err = eval.RunBugStudyForensics(*seed, *incidentDir, *traceOut)
		if err != nil {
			return err
		}
		if *incidentDir != "" {
			fmt.Printf("incident bundles written to %s\n\n", *incidentDir)
		}
		if *traceOut != "" {
			fmt.Printf("causal traces written to %s (render with rabiteval -trace %s)\n\n",
				*traceOut, *traceOut)
		}
	}
	if all || *table == 5 {
		tableV(study)
	}
	if all || *fig == 5 {
		fig5(study)
	}
	if all || *fig == 6 {
		fig6(study)
	}
	if all || *latency {
		if err := latencyRun(*seed); err != nil {
			return err
		}
	}
	if all || *throughput {
		gwLabs := 0
		if *throughput && *gatewayMode {
			gwLabs = *labsN
		}
		if err := throughputRun(*seed, *jsonPath, gwLabs); err != nil {
			return err
		}
	}
	if *motion && *cold {
		if err := coldRun(*seed, *jsonPath); err != nil {
			return err
		}
	} else if all || *motion {
		var motionJSON string
		if *motion {
			motionJSON = *jsonPath
		}
		if err := motionRun(*seed, motionJSON); err != nil {
			return err
		}
	}
	if all || *pilot {
		if err := pilotRun(); err != nil {
			return err
		}
	}
	return nil
}

// incidentsRun is the forensics mode: it loads every incident bundle
// under dir, prints one causal timeline per incident, and closes with
// the aggregate detection-latency report.
func incidentsRun(dir string) error {
	incs, err := recorder.LoadIncidents(dir)
	if err != nil {
		return err
	}
	fmt.Printf("=== Incident forensics: %d bundles under %s ===\n\n", len(incs), dir)
	for _, in := range incs {
		fmt.Println(eval.RenderIncidentTimeline(in))
	}
	fmt.Print(eval.RenderIncidentReport(eval.BuildIncidentReport(incs)))
	return nil
}

// rulesRun is the per-rule safety report: the sixteen-bug study plus a
// clean run, every rule's labeled metric series merged and ranked by
// fire rate.
func rulesRun(seed int64) error {
	fmt.Println("=== Per-rule safety report: fire rate, eval latency, near-miss margin ===")
	rows, err := eval.RulesReport(seed)
	if err != nil {
		return err
	}
	fmt.Print(eval.RenderRuleReport(rows))
	fmt.Println()
	return nil
}

// throughputRun measures replay throughput for the serial single-lock
// pipeline (all scripts behind one shared interceptor — the seed
// architecture's only safe concurrent deployment) and the sharded
// per-device pipeline, at 1, 4, and 16 concurrent scripts. With
// gwLabs > 0 it extends the trajectory with the gateway deployment:
// the same scripts issued over the HTTP API against gwLabs pooled lab
// tenants.
func throughputRun(seed int64, jsonPath string, gwLabs int) error {
	fmt.Println("=== Replay throughput: serial single-lock vs sharded pipeline ===")
	var rows []eval.ThroughputResult
	for _, serial := range []bool{true, false} {
		for _, scripts := range []int{1, 4, 16} {
			res, err := eval.Throughput(eval.ThroughputOptions{
				Scripts:           scripts,
				CommandsPerScript: 40,
				Speedup:           200,
				Serial:            serial,
				Seed:              seed,
			})
			if err != nil {
				return err
			}
			rows = append(rows, *res)
		}
	}
	if gwLabs > 0 {
		counts := []int{gwLabs}
		if gwLabs < 16 {
			counts = append(counts, 16)
		}
		for _, scripts := range counts {
			res, err := eval.GatewayThroughput(eval.GatewayThroughputOptions{
				Labs:              gwLabs,
				Scripts:           scripts,
				CommandsPerScript: 40,
				Speedup:           200,
				Seed:              seed,
			})
			if err != nil {
				return err
			}
			rows = append(rows, *res)
		}
	}
	fmt.Print(eval.RenderThroughput(rows))
	if s := throughputSpeedup(rows, 16); s > 0 {
		fmt.Printf("→ sharded/serial speedup at 16 scripts: %.1f×\n", s)
	}
	fmt.Println()
	if jsonPath != "" {
		if err := writeThroughputJSON(jsonPath, rows); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n\n", jsonPath)
	}
	return nil
}

// throughputSpeedup returns sharded-over-serial commands/sec at the
// given script count, or 0 if either row is missing.
func throughputSpeedup(rows []eval.ThroughputResult, scripts int) float64 {
	var serial, sharded float64
	for _, r := range rows {
		if r.Scripts != scripts {
			continue
		}
		if r.Mode == "serial" {
			serial = r.CommandsPerSec
		} else {
			sharded = r.CommandsPerSec
		}
	}
	if serial <= 0 {
		return 0
	}
	return sharded / serial
}

// writeThroughputJSON persists the measured rows in the shared bench
// envelope.
func writeThroughputJSON(path string, rows []eval.ThroughputResult) error {
	type row struct {
		Mode           string  `json:"mode"`
		Labs           int     `json:"labs,omitempty"`
		Scripts        int     `json:"scripts"`
		Commands       int     `json:"commands"`
		WallNS         int64   `json:"wall_ns"`
		CommandsPerSec float64 `json:"commands_per_sec"`
		CheckPerCmdNS  int64   `json:"check_per_command_ns"`
		ValidateP50NS  int64   `json:"validate_p50_ns"`
		FetchP50NS     int64   `json:"fetch_p50_ns"`
		CompareP50NS   int64   `json:"compare_p50_ns"`
	}
	var out []row
	for _, r := range rows {
		out = append(out, row{
			Mode:           r.Mode,
			Labs:           r.Labs,
			Scripts:        r.Scripts,
			Commands:       r.Commands,
			WallNS:         r.Wall.Nanoseconds(),
			CommandsPerSec: r.CommandsPerSec,
			CheckPerCmdNS:  r.CheckPerCommand.Nanoseconds(),
			ValidateP50NS:  r.Validate.P50.Nanoseconds(),
			FetchP50NS:     r.Fetch.P50.Nanoseconds(),
			CompareP50NS:   r.Compare.P50.Nanoseconds(),
		})
	}
	return writeBenchJSON(path, "engine_throughput",
		map[string]any{"commands_per_script": 40, "speedup_factor": 200},
		map[string]any{"sharded_speedup_16_scripts": throughputSpeedup(rows, 16)},
		out)
}

// motionRun measures the motion-planning fast path: the identical
// motion-heavy station-visit replay under three configurations — caches
// off, caches on, caches plus speculative lookahead.
func motionRun(seed int64, jsonPath string) error {
	fmt.Println("=== Motion-planning fast path: plan/verdict caches + speculative lookahead ===")
	rows, err := eval.Motion(eval.MotionOptions{Visits: 12, Seed: seed})
	if err != nil {
		return err
	}
	fmt.Print(eval.RenderMotion(rows))
	if s := eval.MotionSpeedup(rows); s > 0 {
		fmt.Printf("→ validate+trajectory p50 speedup, no-cache vs cache+spec: %.1f×\n", s)
	}
	fmt.Println()
	if jsonPath != "" {
		if err := writeMotionJSON(jsonPath, rows); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n\n", jsonPath)
	}
	return nil
}

// writeMotionJSON persists the motion rows in the shared bench envelope.
func writeMotionJSON(path string, rows []eval.MotionResult) error {
	type row struct {
		Mode                string `json:"mode"`
		Commands            int    `json:"commands"`
		MotionCommands      int    `json:"motion_commands"`
		WallNS              int64  `json:"wall_ns"`
		ValidateP50NS       int64  `json:"validate_p50_ns"`
		ValidateP95NS       int64  `json:"validate_p95_ns"`
		TrajectoryP50NS     int64  `json:"trajectory_p50_ns"`
		TrajectoryP95NS     int64  `json:"trajectory_p95_ns"`
		PlanHits            int64  `json:"plan_cache_hits"`
		PlanMisses          int64  `json:"plan_cache_misses"`
		VerdictHits         int64  `json:"verdict_cache_hits"`
		VerdictMisses       int64  `json:"verdict_cache_misses"`
		EpochBumps          int64  `json:"deck_epoch_bumps"`
		Speculations        int64  `json:"speculations"`
		SpeculationHits     int64  `json:"speculation_hits"`
		SpeculationsDropped int64  `json:"speculations_dropped"`
	}
	var out []row
	for _, r := range rows {
		out = append(out, row{
			Mode:                r.Mode,
			Commands:            r.Commands,
			MotionCommands:      r.MotionCommands,
			WallNS:              r.Wall.Nanoseconds(),
			ValidateP50NS:       r.Validate.P50.Nanoseconds(),
			ValidateP95NS:       r.Validate.P95.Nanoseconds(),
			TrajectoryP50NS:     r.Trajectory.P50.Nanoseconds(),
			TrajectoryP95NS:     r.Trajectory.P95.Nanoseconds(),
			PlanHits:            r.PlanHits,
			PlanMisses:          r.PlanMisses,
			VerdictHits:         r.VerdictHits,
			VerdictMisses:       r.VerdictMisses,
			EpochBumps:          r.EpochBumps,
			Speculations:        r.Speculations,
			SpeculationHits:     r.SpeculationHits,
			SpeculationsDropped: r.SpeculationsDropped,
		})
	}
	return writeBenchJSON(path, "motion_fast_path",
		map[string]any{"visits": 12},
		map[string]any{"p50_speedup_no_cache_vs_spec": eval.MotionSpeedup(rows)},
		out)
}

// coldRun measures the cold-path geometry engine: the identical seeded
// fresh-target streams replayed under the legacy, brute-force, and
// indexed sweep pipelines, serially and sharded across arms.
func coldRun(seed int64, jsonPath string) error {
	fmt.Println("=== Cold-path geometry: adversarial fresh-target sweep (legacy vs brute vs indexed) ===")
	rows, err := eval.MotionCold(eval.ColdOptions{Checks: 150, Seed: seed})
	if err != nil {
		return err
	}
	fmt.Print(eval.RenderCold(rows))
	fmt.Println()
	if jsonPath != "" {
		if err := writeColdJSON(jsonPath, rows); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n\n", jsonPath)
	}
	return nil
}

// writeColdJSON persists the cold rows in the shared bench envelope.
func writeColdJSON(path string, rows []eval.ColdResult) error {
	type row struct {
		Mode          string `json:"mode"`
		Context       string `json:"context"`
		Checks        int    `json:"checks"`
		Accepts       int    `json:"accepts"`
		WallNS        int64  `json:"wall_ns"`
		P50NS         int64  `json:"p50_ns"`
		P95NS         int64  `json:"p95_ns"`
		PlanHits      int64  `json:"plan_cache_hits"`
		PlanMisses    int64  `json:"plan_cache_misses"`
		Candidates    int64  `json:"index_candidates"`
		Kept          int64  `json:"broadphase_kept"`
		Pruned        int64  `json:"broadphase_pruned"`
		IndexRebuilds int64  `json:"index_rebuilds"`
	}
	var out []row
	for _, r := range rows {
		out = append(out, row{
			Mode:          r.Mode,
			Context:       r.Context,
			Checks:        r.Checks,
			Accepts:       r.Accepts,
			WallNS:        r.Wall.Nanoseconds(),
			P50NS:         r.P50.Nanoseconds(),
			P95NS:         r.P95.Nanoseconds(),
			PlanHits:      r.PlanHits,
			PlanMisses:    r.PlanMisses,
			Candidates:    r.Candidates,
			Kept:          r.Kept,
			Pruned:        r.Pruned,
			IndexRebuilds: r.Rebuilds,
		})
	}
	return writeBenchJSON(path, "cold_geometry",
		map[string]any{"checks": 150},
		map[string]any{"cold_p95_speedup": eval.ColdSpeedup(rows)},
		out)
}

// campaignRun executes a seeded safety campaign and reports the pooled
// runner's throughput against three calibration runs at min(n, 1000)
// scenarios: the naive per-scenario-construction baseline (the speedup
// denominator) and pooled runs at 1 and 8 workers (the scaling and
// determinism checks). The calibration size is capped because the naive
// baseline is, by design, several times slower than the thing being
// measured.
func campaignRun(n int, seed uint64, workers int, jsonPath, incidentDir string) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	cores := runtime.NumCPU()
	fmt.Printf("=== Campaign: %d seeded scenarios, %d workers, %d core(s) ===\n", n, workers, cores)

	// Live telemetry: the campaign registry's rabit_campaign_* gauges
	// land on /metrics and /metrics/prom, and /campaign streams NDJSON
	// progress snapshots — both served by -metrics while the run is hot.
	reg := obs.NewRegistry("campaign")
	obs.Register(reg)
	defer obs.Unregister(reg)
	prog := campaign.NewProgress(reg)
	obs.RegisterHTTPHandler("/campaign", prog)

	pooled, err := campaign.Run(campaign.Options{N: n, Seed: seed, Workers: workers, IncidentDir: incidentDir, Progress: prog})
	if err != nil {
		return err
	}
	fmt.Printf("pooled   n=%-7d workers=%d: %8.1f scen/s\n", n, workers, pooled.ScenariosPerSec)
	if m := pooled.SweepMemo; m.Hits+m.Misses > 0 {
		fmt.Printf("world sweeps answered by the clean-sweep memo: %d of %d (%.1f%%)\n",
			m.Hits, m.Hits+m.Misses, 100*float64(m.Hits)/float64(m.Hits+m.Misses))
	}

	nCal := min(n, 1000)
	naive, err := campaign.Run(campaign.Options{N: nCal, Seed: seed, Workers: workers, Naive: true})
	if err != nil {
		return err
	}
	fmt.Printf("naive    n=%-7d workers=%d: %8.1f scen/s\n", nCal, workers, naive.ScenariosPerSec)
	speedup := 0.0
	if naive.ScenariosPerSec > 0 {
		speedup = pooled.ScenariosPerSec / naive.ScenariosPerSec
	}
	fmt.Printf("→ pooled speedup over per-scenario construction: %.1f×\n", speedup)

	w1, err := campaign.Run(campaign.Options{N: nCal, Seed: seed, Workers: 1})
	if err != nil {
		return err
	}
	w8, err := campaign.Run(campaign.Options{N: nCal, Seed: seed, Workers: 8})
	if err != nil {
		return err
	}
	scaling := 0.0
	if w1.ScenariosPerSec > 0 {
		scaling = w8.ScenariosPerSec / w1.ScenariosPerSec
	}
	fmt.Printf("scaling  n=%-7d w1 %.1f scen/s, w8 %.1f scen/s → %.1f× on %d core(s)\n",
		nCal, w1.ScenariosPerSec, w8.ScenariosPerSec, scaling, cores)

	// The determinism contract, checked end to end: worker count must not
	// change the summary, and the pooled fast path must compute exactly
	// what the naive baseline computes.
	invariant := w1.Counts() == w8.Counts()
	norm := func(c string) string {
		c = strings.Replace(c, "naive=true", "naive=?", 1)
		return strings.Replace(c, "naive=false", "naive=?", 1)
	}
	equivalent := norm(w1.Counts()) == norm(naive.Counts())
	fmt.Printf("worker-invariant summary: %v; pooled ≡ naive: %v\n\n", invariant, equivalent)
	fmt.Print(pooled.Counts())
	if incidentDir != "" {
		fmt.Printf("\nincident bundles (alerts + missed unsafe injections) under %s\n", incidentDir)
	}
	fmt.Println()
	if !invariant {
		return fmt.Errorf("campaign: summary varies with worker count")
	}
	if !equivalent {
		return fmt.Errorf("campaign: pooled and naive runs disagree at n=%d", nCal)
	}

	if jsonPath != "" {
		totals := pooled.Totals()
		type faultRow struct {
			Fault string `json:"fault"`
			campaign.KindStats
		}
		var rows []faultRow
		for k, ks := range pooled.ByFault {
			rows = append(rows, faultRow{Fault: campaign.FaultKind(k).String(), KindStats: ks})
		}
		err := writeBenchJSON(jsonPath, "campaign_throughput",
			map[string]any{
				"n":             n,
				"n_calibration": nCal,
				"seed":          seed,
				"workers":       workers,
				"cores":         cores,
				"incident_dir":  incidentDir,
			},
			map[string]any{
				"pooled_scen_per_sec": pooled.ScenariosPerSec,
				"naive_scen_per_sec":  naive.ScenariosPerSec,
				"pooled_speedup_x":    speedup,
				"w1_scen_per_sec":     w1.ScenariosPerSec,
				"w8_scen_per_sec":     w8.ScenariosPerSec,
				"scaling_8v1_x":       scaling,
				"worker_invariant":    invariant,
				"pooled_naive_equal":  equivalent,
				"scenarios":           totals.Scenarios,
				"unsafe":              totals.Unsafe,
				"detected":            totals.Detected,
				"missed":              totals.Missed,
				"benign_alerts":       totals.BenignAlerts,
				"false_alarms":        pooled.FalseAlarms,
				"incidents_filed":     pooled.IncidentsFiled,
				"damage_micros":       pooled.DamageMicros,
				"oracle_errors":       pooled.OracleErrors,
				"run_errors":          pooled.RunErrors,
				"setup_errors":        pooled.SetupErrors,
			},
			rows)
		if err != nil {
			return err
		}
		fmt.Printf("wrote %s\n\n", jsonPath)
	}
	return nil
}

func pilotRun() error {
	fmt.Println("=== Section V-A: pilot-study configuration mistakes vs. the linter ===")
	results, err := eval.RunPilotStudy()
	if err != nil {
		return err
	}
	fmt.Print(eval.RenderPilot(results))
	fmt.Println()
	return nil
}

func tableI(seed int64) error {
	fmt.Println("=== Table I: capabilities of RABIT's three stages ===")
	rows, err := eval.TableI(seed)
	if err != nil {
		return err
	}
	fmt.Print(eval.RenderTableI(rows))
	fmt.Println()
	return nil
}

func tableII() {
	fmt.Println("=== Table II: state transition table (robot-arm rows) ===")
	for _, e := range rules.TransitionTable() {
		fmt.Printf("%-62s pre=%v action=%s post=%v\n",
			e.Example, e.Preconditions, e.ActionLabel, e.Postconditions)
	}
	fmt.Println()
}

func tablesIIIandIV(seed int64, only int) error {
	results, err := eval.RunControlled("testbed", env.StageTestbed, seed)
	if err != nil {
		return err
	}
	render := func(table string) {
		fmt.Printf("=== Table %s: controlled rule-violation experiments ===\n", table)
		detected, total := 0, 0
		for _, r := range results {
			if r.Scenario.Table != table {
				continue
			}
			total++
			mark := "MISSED"
			if r.Detected && r.RuleHit {
				mark = "DETECTED"
				detected++
			}
			fmt.Printf("%2d  %-70s %s\n", r.Scenario.Number, r.Scenario.Name, mark)
		}
		fmt.Printf("→ %d/%d rules detected\n\n", detected, total)
	}
	if only == 0 || only == 3 {
		render("III")
	}
	if only == 0 || only == 4 {
		render("IV")
	}
	return nil
}

func tableV(st *eval.BugStudy) {
	fmt.Println("=== Table V: severity of the 16 injected bugs (modified RABIT) ===")
	fmt.Printf("%-14s %6s %9s\n", "Severity", "Total", "Detected")
	for _, r := range st.TableV() {
		fmt.Printf("%-14s %6d %9d\n", r.Severity, r.Total, r.Detected)
	}
	fmt.Printf("\nSection IV progression: initial %d/16 (%.0f%%) → modified %d/16 (%.0f%%) → +simulator %d/16 (%.0f%%)\n\n",
		st.DetectedCount(eval.ConfigInitial), st.DetectionRate(eval.ConfigInitial),
		st.DetectedCount(eval.ConfigModified), st.DetectionRate(eval.ConfigModified),
		st.DetectedCount(eval.ConfigModifiedSim), st.DetectionRate(eval.ConfigModifiedSim))

	fmt.Println("per-bug outcomes:")
	fmt.Printf("%3s %-28s %-30s %-11s %8s %9s %6s\n",
		"#", "bug", "category", "severity", "initial", "modified", "+sim")
	for _, o := range st.Outcomes {
		fmt.Printf("%3d %-28s %-30s %-11s %8v %9v %6v\n",
			o.Bug.ID, o.Bug.Slug, o.Bug.Category, o.Bug.Severity,
			o.Detected[eval.ConfigInitial], o.Detected[eval.ConfigModified],
			o.Detected[eval.ConfigModifiedSim])
	}
	fmt.Println()
}

func fig5(st *eval.BugStudy) {
	fmt.Println("=== Fig. 5: annotated bugs A, B, C ===")
	for _, spec := range []struct {
		id    int
		label string
	}{
		{1, "Bug A: open_door omitted before re-entry"},
		{7, "Bug B: ned2 moved next to the occupied grid"},
		{14, "Bug C: pick-up call deleted"},
	} {
		o, _ := st.Outcome(spec.id)
		fmt.Printf("%-48s initial=%v modified=%v +sim=%v\n", spec.label,
			o.Detected[eval.ConfigInitial], o.Detected[eval.ConfigModified],
			o.Detected[eval.ConfigModifiedSim])
		for _, ev := range o.GroundTruthDamage {
			fmt.Println("    unprotected ground truth:", ev)
		}
	}
	fmt.Println()
}

func fig6(st *eval.BugStudy) {
	fmt.Println("=== Fig. 6: Bug D (script location-table z edit) ===")
	bare, _ := st.Outcome(9)
	held, _ := st.Outcome(13)
	fmt.Printf("bare gripper:  initial=%v modified=%v\n",
		bare.Detected[eval.ConfigInitial], bare.Detected[eval.ConfigModified])
	fmt.Printf("holding vial:  initial=%v modified=%v\n",
		held.Detected[eval.ConfigInitial], held.Detected[eval.ConfigModified])
	for _, ev := range held.GroundTruthDamage {
		fmt.Println("    unprotected ground truth:", ev)
	}
	fmt.Println()
}

func latencyRun(seed int64) error {
	fmt.Println("=== Section II-C: RABIT latency overhead (paced 2000×) ===")
	rows, err := eval.Latency(seed, 2000)
	if err != nil {
		return err
	}
	fmt.Print(eval.RenderLatency(rows))
	fmt.Println()
	return nil
}
