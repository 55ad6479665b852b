// FINRA example: the paper's motivating workflow (Fig 1) on the full
// platform — two fetch functions produce trade dataframes, 200 audit
// rules validate them concurrently, one merge collects the violations.
// The example runs the same request under every transfer mode and prints
// the latency table, showing where RMMAP's win comes from.
//
// Run: go run ./examples/finra
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"text/tabwriter"

	"rmmap/internal/platform"
	"rmmap/internal/simtime"
	"rmmap/internal/workloads"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	cfg := workloads.DefaultFINRA()
	cfg.Rows = 8000 // keep the example snappy; rmmap bench runs full scale
	cfg.Rules = 50

	fmt.Fprintf(w, "FINRA: %d trade rows per feed, %d concurrent audit rules\n\n", cfg.Rows, cfg.Rules)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "mode\tlatency\tser+des\ttransfer work\tviolations")
	var baseline simtime.Duration
	for _, mode := range platform.AllModes() {
		engine, err := platform.NewEngine(workloads.FINRA(cfg), mode, platform.Options{},
			platform.DefaultClusterConfig())
		if err != nil {
			return err
		}
		res, err := engine.Run()
		if err != nil {
			return fmt.Errorf("%v: %w", mode, err)
		}
		out := res.Output.(workloads.FINRAResult)
		if mode == platform.ModeMessaging {
			baseline = res.Latency
		}
		fmt.Fprintf(tw, "%v\t%v (%.2fx vs messaging)\t%v\t%v\t%d\n",
			mode, res.Latency, float64(baseline)/float64(res.Latency),
			res.Meter.SerTotal(), res.Meter.TransferTotal(), out.Violations)
	}
	tw.Flush()
	fmt.Fprintln(w, "\nEvery mode computes identical violations — only the transfer mechanism differs.")
	return nil
}
