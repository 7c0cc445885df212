// Command perfbench is the join service's benchmark.  It generates its
// inputs from a seed, runs one workload against the real server, router and
// library code, checks every answer against a brute-force oracle, and prints
// the end-to-end metrics (or, with --trace 1, the per-layer metrics) as the
// last line of its output.
//
// Usage, from the root of a checkout:
//
//	bash perfbench/run.sh --workload intersect-wire --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh compare parent.log change.log
//	bash perfbench/run.sh spec > BENCHMARK.json
//
// A run exits non-zero, without a result line, when the program answers
// wrongly; a request that fails or is shed counts against ok_frac instead.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil))
}

// run executes one command line and returns the exit code.  tweak, when
// set, adjusts the parsed configuration: the tests shrink the workload and
// inject wrong answers through it.
func run(args []string, stdout, stderr io.Writer, tweak func(*config)) int {
	if len(args) > 0 {
		switch args[0] {
		case "spec":
			stdout.Write(benchmarkJSON())
			return 0
		case "compare":
			if err := compare(stdout, args[1:]); err != nil {
				fmt.Fprintln(stderr, "perfbench:", err)
				return 2
			}
			return 0
		}
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := make([]string, 0, len(workloads))
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	cfg := config{setups: 3, minSamples: 100, scale: 1}
	fs.StringVar(&cfg.workload, "workload", "", fmt.Sprintf("workload to run: one of %v", names))
	fs.Int64Var(&cfg.seed, "seed", 1, "seed the inputs are generated from")
	fs.Float64Var(&cfg.seconds, "seconds", runSeconds, "length of the measured phase in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced phase and prints the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = *trace == 1
	if tweak != nil {
		tweak(&cfg)
	}

	cfg.workDir = os.Getenv("PERFBENCH_WORKDIR")
	if cfg.workDir == "" {
		cfg.workDir = ".bench_build"
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(cfg.workDir, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	cfg.workDir = dir

	rec, attempted, failed, err := runBenchmark(cfg, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "harness: writer_lag_p90_ms=%.3f trace_overhead=%s cpu_steal_frac=%.4f host_mops=%.1f samples=%d\n",
		rec.Metrics["harness.writer_lag_p90_ms"], traceOverhead(rec), rec.Metrics["harness.cpu_steal_frac"],
		rec.Metrics["harness.host_mops"], rec.Samples)
	if err := printResult(stdout, rec, attempted, failed, true); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func traceOverhead(rec record) string {
	if !rec.Trace {
		return "n/a (untraced run; measured by --trace 1)"
	}
	return fmt.Sprintf("%.3f", rec.Metrics["harness.trace_overhead"])
}
