// The perf ledger: one command that runs the repository's four benchmark
// workloads, checks their outputs, and prints every metric BENCHMARK.json
// declares — end to end on both clocks (host and virtual) and layer by
// layer. See README.md.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perf-ledger", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "run only this workload ("+strings.Join(workloadNames(), ", ")+"); with it the last line printed is the acceptance driver's JSON object")
		seed     = fs.Uint64("seed", defaultSeed, "benchmark seed: every workload input derives from it")
		reps     = fs.Int("reps", 0, "cold repetitions per workload (default 5, or 1 with -quick)")
		seconds  = fs.Float64("seconds", 0, "instead of -reps: repeat each workload until this many seconds of timed region have run (at least 3 repetitions)")
		trace    = fs.Int("trace", 0, "1 adds a traced repetition per workload and the layerwalk: per-layer metrics, CPU profile, span files in -out")
		quick    = fs.Bool("quick", false, "smoke sizes (about 3% of the work); goldens are not checked")
		out      = fs.String("out", ".bench_build/out", "directory for results.json, trace_*.json and cpu_*.pprof")
		compare  = fs.Bool("compare", false, "compare two results files: -compare base.json candidate.json")
		update   = fs.Bool("update-expected", false, "re-measure the goldens and rewrite expected.json")
		workers  = fs.Int("workers", 0, "override every workload's engine worker count (determinism checks)")

		child     = fs.Bool("child", false, "internal: run one repetition and print its report")
		spawnedAt = fs.Int64("spawned-at", 0, "internal: the parent's clock before exec, Unix ns")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "perf ledger: "+format+"\n", a...)
		return 2
	}

	if *compare {
		if fs.NArg() != 2 {
			return fail("-compare takes two results files")
		}
		return runCompare(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 {
		return fail("unexpected argument %q", fs.Arg(0))
	}
	if *trace != 0 && *trace != 1 {
		return fail("-trace is 0 or 1")
	}
	if *child {
		err := runChild(childArgs{workload: *workload, seed: *seed, quick: *quick, trace: *trace == 1,
			workers: *workers, out: *out, spawnedAt: *spawnedAt}, stdout)
		if err != nil {
			return fail("%v", err)
		}
		return 0
	}

	cfg := config{seed: *seed, reps: *reps, seconds: *seconds, trace: *trace == 1, quick: *quick,
		out: *out, workers: *workers, workloads: workloadDefs}
	if cfg.reps <= 0 {
		cfg.reps = 5
		if cfg.quick {
			cfg.reps = 1
		}
	}
	if *workload != "" {
		def, ok := findWorkload(*workload)
		if !ok {
			return fail("unknown workload %q (have %s)", *workload, strings.Join(workloadNames(), ", "))
		}
		cfg.workloads = []workloadDef{def}
	}
	if *update {
		return updateExpected(cfg, stderr)
	}
	return runLedger(cfg, stdout, stderr)
}

func workloadNames() []string {
	var names []string
	for _, w := range workloadDefs {
		names = append(names, w.name)
	}
	return names
}
