// Command rmmap-bench regenerates the paper's tables and figures. Each
// experiment prints the rows/series of one figure of the evaluation (§5)
// or motivation (§2.3), or one design ablation (abl-*).
//
// Usage:
//
//	rmmap-bench -list
//	rmmap-bench [-scale 0.25] [fig11a fig14 ...]
//	rmmap-bench -json [-scale 0.25]
//	rmmap-bench -topology spine-leaf -json
//	rmmap-bench -cpuprofile cpu.pb.gz -memprofile mem.pb.gz fig14
//
// With no experiment IDs, all experiments run in registration order.
// -scale shrinks payload sizes for quick runs; 1.0 is the calibrated
// default documented in EXPERIMENTS.md. Every number printed is virtual
// time or a count, so stdout is byte-identical at any -workers or
// -ctrl-shards setting; host cost is measured by the perf ledger
// (benchmark/). -json writes the machine-readable Fig 14 grid (per-mode
// latency, fabric reads, cache hit rate, per-category breakdown, plus the
// failover and topology-cliff sections) to BENCH_fig14.json; combined with
// experiment IDs it also runs those. -topology runs the Fig-14 grid and
// the fan-out ablation on a multi-rack cluster shape — a platformbuilder
// recipe by name or a topology JSON file (recipes, JSON schema, and the
// link-cost model are documented in PLATFORMS.md); rows carry the shape in
// their "topology" field. -cpuprofile/-memprofile write pprof profiles of
// the run (heap taken at exit after a GC), for digging into hot-path
// regressions the benchmarks flag.
//
// For the overload/scale soak — open-loop multi-tenant load with
// deadlines and admission control, writing BENCH_scale.json — see
// cmd/rmmap-load.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"rmmap/internal/bench"
	"rmmap/internal/platformbuilder"
)

func main() {
	// Profile finalizers are deferred inside run so they fire on every
	// path; os.Exit only happens here, after they have run.
	os.Exit(run())
}

func run() int {
	scale := flag.Float64("scale", 1.0, "payload scale factor in (0,1]")
	list := flag.Bool("list", false, "list experiments and exit")
	jsonOut := flag.Bool("json", false, "write the Fig 14 grid to BENCH_fig14.json")
	workers := flag.Int("workers", 0, "engine worker-pool size (0 = all cores, 1 = sequential); results are identical, only wall time changes")
	ctrlShards := flag.Int("ctrl-shards", 0, "consistent-hash coordinator shards (0/1 = single coordinator); results are identical at any setting")
	topology := flag.String("topology", "", "cluster shape for the Fig-14 grid and fan-out ablation: a recipe name ("+
		"see PLATFORMS.md) or a topology JSON file; default is the classic flat cluster")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
	memProfile := flag.String("memprofile", "", "write a heap profile taken at exit to this file (go tool pprof)")
	flag.Parse()
	bench.Workers = *workers
	bench.CtrlShards = *ctrlShards
	if *topology != "" {
		// Validate eagerly so a typo fails before any experiment runs.
		if _, err := platformbuilder.Resolve(*topology, 0); err != nil {
			fmt.Fprintf(os.Stderr, "-topology: %v (known recipes: %v)\n", err, platformbuilder.Recipes())
			return 1
		}
		bench.Topology = *topology
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			f.Close()
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live heap so the profile shows retention, not garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}()
	}

	if *list {
		for _, e := range bench.All() {
			fmt.Printf("%-14s %s\n%-14s   expect: %s\n", e.ID, e.Title, "", e.Expect)
		}
		return 0
	}

	ids := flag.Args()
	if *jsonOut {
		f, err := os.Create("BENCH_fig14.json")
		if err != nil {
			fmt.Fprintf(os.Stderr, "BENCH_fig14.json: %v\n", err)
			return 1
		}
		if err := bench.WriteFig14JSON(f, *scale); err != nil {
			fmt.Fprintf(os.Stderr, "fig14 json: %v\n", err)
			return 1
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "BENCH_fig14.json: %v\n", err)
			return 1
		}
		fmt.Println("wrote BENCH_fig14.json")
		if len(ids) == 0 {
			return 0
		}
	}
	ran := 0
	for _, e := range bench.All() {
		if len(ids) > 0 && !contains(ids, e.ID) {
			continue
		}
		ran++
		fmt.Printf("=== %s — %s ===\n", e.ID, e.Title)
		fmt.Printf("expected shape: %s\n\n", e.Expect)
		if err := e.Run(os.Stdout, *scale); err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.ID, err)
			return 1
		}
		fmt.Println()
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "no experiment matched %v; known: %v\n", ids, bench.IDs())
		return 1
	}
	return 0
}

func contains(ss []string, s string) bool {
	for _, x := range ss {
		if x == s {
			return true
		}
	}
	return false
}
