// Command perfbench is the repository's benchmark: four workloads that drive
// the encrypted-MPI stack through its public entry points, check every
// output, and print end-to-end metrics (or, with --trace 1, per-layer
// metrics) as one JSON line.
//
//	bash perfbench/run.sh --workload halo_shm --seed 1 --seconds 20 --trace 0
//
// See README.md in this directory for the workloads, the metric map, and
// what each layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"encmpi"
)

// workloads maps each workload name to its driver.
var workloads = map[string]func(cfg config, ph *phase) error{
	"halo_shm":       runHalo,
	"stream_tcp":     runStream,
	"allreduce_hear": runHear,
	"coll_sim":       runCollSim,
}

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// traceDir receives the span file of a traced run ("" skips writing).
	traceDir string
	// tiny shrinks every problem size (tests).
	tiny bool
	// jobs is the number of launches per measured phase; set-up time is the
	// median over them.
	jobs int
	// launch holds extra launcher options (the fault-injection test).
	launch []encmpi.Option
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload name: halo_shm, stream_tcp, allreduce_hear, coll_sim")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	traceDir := flag.String("trace-dir", ".bench_build/trace", "directory for span files of traced runs")
	flag.Parse()

	if _, ok := workloads[*workload]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	// GOMAXPROCS never exceeds the CPUs the process may use.
	if n := runtime.NumCPU(); runtime.GOMAXPROCS(0) > n {
		runtime.GOMAXPROCS(n)
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		traceDir: *traceDir,
		jobs:     5,
	}
	host := hostFacts(cfg)
	if b, err := json.Marshal(map[string]any{"host": host}); err == nil {
		fmt.Println(string(b))
	}
	res, failures, err := run(cfg, host)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	for _, f := range failures {
		fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %s\n", cfg.workload, f)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if !res.Correct {
		os.Exit(1)
	}
}

// run measures one workload and assembles the result line. Untraced, the
// whole budget is one phase that yields the end-to-end metrics. Traced, the
// budget splits into an untraced phase and a traced phase; the per-layer
// metrics come from the traced one, and the two op rates give the tracing
// overhead.
func run(cfg config, host map[string]any) (result, []string, error) {
	body := workloads[cfg.workload]
	res := result{Metrics: map[string]metric{}}
	// A short untimed launch first lets the process's heap, buffer pools
	// and sockets reach their steady state; its outputs are still checked.
	warm := cfg
	warm.jobs, warm.seconds = 1, min(2, cfg.seconds/10)
	warmup := newPhase(warm, false)
	if err := body(warm, warmup); err != nil {
		return res, nil, err
	}
	book := func(phases ...*phase) []string {
		var failures []string
		for _, ph := range append([]*phase{warmup}, phases...) {
			res.Attempted += ph.attempted
			res.Failed += ph.failed
			failures = append(failures, ph.failures...)
		}
		res.Correct = res.Failed == 0 && res.Attempted > 0
		return failures
	}
	if !cfg.trace {
		ph := newPhase(cfg, false)
		if err := body(cfg, ph); err != nil {
			return res, nil, err
		}
		res.Metrics = ph.endToEnd()
		return res, book(ph), nil
	}
	half := cfg
	half.seconds = cfg.seconds / 2
	plain := newPhase(half, false)
	if err := body(half, plain); err != nil {
		return res, nil, err
	}
	traced := newPhase(half, true)
	if err := body(half, traced); err != nil {
		return res, nil, err
	}
	failures := book(plain, traced)
	res.Metrics = traced.perLayer(plain)
	if cfg.traceDir != "" {
		if err := traced.tr.write(cfg.traceDir, cfg, host); err != nil {
			return res, nil, err
		}
	}
	return res, failures, nil
}

// hostFacts records what a result depends on besides the code: CPUs,
// scheduler width, toolchain, source revision, and inputs.
func hostFacts(cfg config) map[string]any {
	return map[string]any{
		"workload":      cfg.workload,
		"seed":          cfg.seed,
		"seconds":       cfg.seconds,
		"trace":         cfg.trace,
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go":            runtime.Version(),
		"os_arch":       runtime.GOOS + "/" + runtime.GOARCH,
		"commit":        gitCommit("."),
		"source_sha256": sourceDigest("."),
		"started":       time.Now().UTC().Format(time.RFC3339),
	}
}
