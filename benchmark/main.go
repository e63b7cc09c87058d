// Command benchmark is the repository's instrument of record: it builds
// cmd/serve and cmd/router, runs them as subprocesses, drives them open-loop
// from this one process, checks every answer against an in-process oracle,
// and prints every metric by name with its unit. See README.md.
//
//	bash benchmark/run.sh --workload tier_resident --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh -seed 1 -out runs.jsonl        # all four workloads
//	bash benchmark/run.sh -compare before.jsonl after.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
)

func main() {
	workload := flag.String("workload", "", "workload to run (default: all four, each in a process of its own)")
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Float64("seconds", 20, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics; 0 = untraced run printing the end-to-end metrics")
	scale := flag.Float64("scale", 1, "multiplies population and instance sizes (the self-test smokes at 0.02)")
	out := flag.String("out", "", "append each run, with its envelope, as one JSON line to this file")
	compare := flag.Bool("compare", false, "compare two -out files given as arguments; exit 1 if any metric got worse")
	flag.Parse()

	// run.sh starts the benchmark in the checkout root.
	root, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files"))
		}
		worse, err := compareFiles(os.Stdout, filepath.Join(root, "BENCHMARK.json"), flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if *workload == "" {
		if err := runEach(os.Args[1:]); err != nil {
			fatal(err)
		}
		return
	}
	w := workloadByName(*workload)
	if w == nil {
		fatal(fmt.Errorf("unknown workload %q", *workload))
	}
	cfg := &runConfig{
		root:    root,
		binDir:  filepath.Join(root, ".bench_build", "bin"),
		tmpRoot: filepath.Join(root, ".bench_build", "tmp"),
		outDir:  filepath.Join(root, "benchmark", "out"),
		seed:    *seed,
		seconds: *seconds,
		scale:   *scale,
		trace:   *trace != 0,
		conns:   runtime.NumCPU(),
	}
	// A run that finished exits 0 even when it found wrong answers: the
	// result line says so, and the caller judges from it.
	if err := runOne(cfg, w, *out); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// runEach runs every workload in a process of its own, one after the other,
// so that each is measured exactly as a single-workload run is: the serving
// workloads pin the whole process to one CPU and collect a large oracle,
// which kg_batch must not inherit.
func runEach(args []string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for _, w := range workloads {
		cmd := exec.Command(self, append([]string{"-workload", w.Name}, args...)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
	}
	return nil
}

// runOne runs one workload and prints its metrics, its envelope and its
// result line.
func runOne(cfg *runConfig, w *workloadSpec, outFile string) error {
	if err := os.MkdirAll(cfg.tmpRoot, 0o755); err != nil {
		return err
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var res *runResult
	if w.Serves > 0 {
		d, err := buildServers(cfg.root, cfg.binDir)
		if err != nil {
			return err
		}
		cfg.buildS = d.Seconds()
		// The load generator keeps to one core; the servers get the rest.
		runtime.GOMAXPROCS(1)
		if cfg.cpus = planCPUs(); !cfg.cpus.pinGenerator() {
			cfg.cpus = cpuPlan{}
		}
		if res, err = runServing(w, cfg, tr); err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
	} else {
		var err error
		if res, err = runKGBatch(w, cfg); err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
	}
	env := newEnvelope(cfg, w, res)
	if cfg.trace {
		if err := runLayerProbes(w, cfg, tr, res); err != nil {
			return fmt.Errorf("%s: layer probes: %w", w.Name, err)
		}
		path := filepath.Join(cfg.outDir, "trace-"+w.Name+".json")
		if err := tr.write(path); err != nil {
			return err
		}
		fmt.Printf("trace: %s\n", path)
	}
	if cfg.buildS > 0 {
		res.Metrics["harness.build_s"] = cfg.buildS
	}
	res.Metrics["harness.error_share"] = float64(res.Failed) / float64(max(res.Attempted, 1))
	report(os.Stdout, w, cfg, res, env)
	if outFile != "" {
		return appendRun(outFile, env, res)
	}
	return nil
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the run for people, then the one-line result the driver
// reads: exactly the end-to-end metrics untraced, exactly the per-layer
// metrics traced.
func report(out *os.File, w *workloadSpec, cfg *runConfig, res *runResult, env *envelope) {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	fmt.Fprintf(out, "workload %s seed %d seconds %g trace %v\n", w.Name, cfg.seed, cfg.seconds, cfg.trace)
	line := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Failed == 0, max(res.Attempted, 1), res.Failed, map[string]metricValue{}}
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		if _, why := res.Absent[d.Name]; !ok && !why {
			res.Absent[d.Name] = "not exercised by this workload"
		}
		line.Metrics[d.Name] = metricValue{v, d.Unit}
		fmt.Fprintf(out, "  %-38s %14.4f %s\n", d.Name, v, d.Unit)
	}
	fmt.Fprintf(out, "samples: %v\n", res.Samples)
	fmt.Fprint(out, "phase seconds:")
	for _, k := range sortedKeys(res.Phases) {
		fmt.Fprintf(out, " %s %.2f", k, res.Phases[k])
	}
	fmt.Fprintln(out)
	if w.Serves > 0 {
		fmt.Fprintf(out, "gates: generator lateness p99 %.3f ms (limit %.1f) in open-loop phase %.0f of at most %d, fsync probe %.0f us, durability lost writes %.0f\n",
			res.Metrics["harness.late_p99_ms"], maxLateP99Ms, res.Metrics["harness.open_loop_attempts"], openLoopAttempts, res.Metrics["harness.fsync_probe_us"], res.Metrics["harness.durability_lost_writes"])
	}
	for _, d := range defs {
		if why, ok := res.Absent[d.Name]; ok {
			fmt.Fprintf(out, "absent: %s: %s\n", d.Name, why)
		}
	}
	for _, n := range res.Notes {
		fmt.Fprintf(out, "failure: %s\n", n)
	}
	envJSON, _ := json.Marshal(env)
	fmt.Fprintf(out, "envelope: %s\n", envJSON)
	data, _ := json.Marshal(line)
	fmt.Fprintf(out, "%s\n", data)
}
