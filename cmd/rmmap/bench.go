package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"

	"rmmap/internal/bench"
)

// jsonDefault is what bench -json runs when no experiment is named: the
// Fig 14 grid with its failover and topology-cliff sections.
var jsonDefault = []string{"fig14", "abl-failover", "abl-topology"}

func runBench(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("bench", stderr)
	scale := fs.Float64("scale", 1.0, "payload scale factor in (0,1]")
	list := fs.Bool("list", false, "list experiments and exit")
	jsonOut := fs.Bool("json", false, "also write the tables of the experiments run to BENCH_fig14.json; "+
		"with no experiment IDs, runs "+strings.Join(jsonDefault, " "))
	cf := newClusterFlags(fs,
		use{"workers", 0, "engine worker-pool size (0 = all cores, 1 = sequential); results are identical, only wall time changes"},
		use{"topology", "", "cluster shape for the Fig-14 grid and fan-out ablation: a recipe name (" +
			"see PLATFORMS.md) or a topology JSON file; default is the classic flat cluster"},
	)
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
	memProfile := fs.String("memprofile", "", "write a heap profile taken at exit to this file (go tool pprof)")
	if err := fs.Parse(args); err != nil {
		return parseExit(err)
	}
	bench.Workers = cf.workers
	// Resolve eagerly so a typo fails before any experiment runs.
	shape, err := cf.builder()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
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
	if *jsonOut && len(ids) == 0 {
		ids = jsonDefault
	}
	report := bench.Report{Scale: *scale, Topology: shape.Name()}
	for _, e := range bench.All() {
		if len(ids) > 0 && !slices.Contains(ids, e.ID) {
			continue
		}
		fmt.Fprintf(stdout, "=== %s — %s ===\n", e.ID, e.Title)
		fmt.Fprintf(stdout, "expected shape: %s\n\n", e.Expect)
		res, err := e.Run(*scale)
		if err != nil {
			fmt.Fprintf(stderr, "%s failed: %v\n", e.ID, err)
			return 1
		}
		res.Print(stdout)
		fmt.Fprintln(stdout)
		report.Experiments = append(report.Experiments, bench.ReportRun{ID: e.ID, Tables: res})
	}
	if len(report.Experiments) == 0 {
		fmt.Fprintf(stderr, "no experiment matched %v; known: %v\n", ids, bench.IDs())
		return 1
	}
	if *jsonOut {
		if err := writeFile("BENCH_fig14.json", report.WriteJSON); err != nil {
			fmt.Fprintf(stderr, "bench json: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout, "wrote BENCH_fig14.json")
	}
	return 0
}
