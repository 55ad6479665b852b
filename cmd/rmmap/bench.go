package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"

	"rmmap/internal/bench"
)

func runBench(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("bench", stderr)
	scale := fs.Float64("scale", 1.0, "payload scale factor in (0,1]")
	list := fs.Bool("list", false, "list experiments and exit")
	jsonOut := fs.Bool("json", false, "write the Fig 14 grid to BENCH_fig14.json")
	cf := newClusterFlags(fs,
		use{"workers", 0, "engine worker-pool size (0 = all cores, 1 = sequential); results are identical, only wall time changes"},
		use{"ctrl-shards", 0, "consistent-hash coordinator shards (0/1 = single coordinator); results are identical at any setting"},
		use{"topology", "", "cluster shape for the Fig-14 grid and fan-out ablation: a recipe name (" +
			"see PLATFORMS.md) or a topology JSON file; default is the classic flat cluster"},
	)
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
	memProfile := fs.String("memprofile", "", "write a heap profile taken at exit to this file (go tool pprof)")
	if err := fs.Parse(args); err != nil {
		return parseExit(err)
	}
	bench.Workers = cf.workers
	bench.CtrlShards = cf.ctrlShards
	if cf.topology != "" {
		// Validate eagerly so a typo fails before any experiment runs.
		if _, err := cf.builder(); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	bench.Topology = cf.topology

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(stderr, "cpuprofile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "cpuprofile: %v\n", err)
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
			runtime.GC() // settle live heap so the profile shows retention, not garbage
			if err := writeFile(*memProfile, pprof.WriteHeapProfile); err != nil {
				fmt.Fprintf(stderr, "memprofile: %v\n", err)
			}
		}()
	}

	if *list {
		for _, e := range bench.All() {
			fmt.Fprintf(stdout, "%-14s %s\n%-14s   expect: %s\n", e.ID, e.Title, "", e.Expect)
		}
		return 0
	}

	ids := fs.Args()
	if *jsonOut {
		if err := writeFile("BENCH_fig14.json", func(w io.Writer) error {
			return bench.WriteFig14JSON(w, *scale)
		}); err != nil {
			fmt.Fprintf(stderr, "fig14 json: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout, "wrote BENCH_fig14.json")
		if len(ids) == 0 {
			return 0
		}
	}
	ran := 0
	for _, e := range bench.All() {
		if len(ids) > 0 && !slices.Contains(ids, e.ID) {
			continue
		}
		ran++
		fmt.Fprintf(stdout, "=== %s — %s ===\n", e.ID, e.Title)
		fmt.Fprintf(stdout, "expected shape: %s\n\n", e.Expect)
		if err := e.Run(stdout, *scale); err != nil {
			fmt.Fprintf(stderr, "%s failed: %v\n", e.ID, err)
			return 1
		}
		fmt.Fprintln(stdout)
	}
	if ran == 0 {
		fmt.Fprintf(stderr, "no experiment matched %v; known: %v\n", ids, bench.IDs())
		return 1
	}
	return 0
}
