package main

import (
	"fmt"
	"io"
	"maps"
	"slices"
	"text/tabwriter"

	"rmmap/internal/load"
	"rmmap/internal/platform"
	"rmmap/internal/simtime"
)

func runWorkflow(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("workflow", stderr)
	cf := newClusterFlags(fs,
		use{"workflow", "finra", ""},
		use{"mode", "rmmap-prefetch", "transfer mode: messaging, pocket, drtm, rmmap, rmmap-prefetch"},
		use{"small", false, ""},
		use{"requests", 1, "requests to run back to back (warm containers)"},
	)
	trace := fs.Bool("trace", false, "print the per-invocation execution timeline")
	tcp := fs.Bool("tcp", false, "connect the cluster's machines over real loopback TCP sockets")
	if err := fs.Parse(args); err != nil {
		return parseExit(err)
	}

	mode, err := platform.ParseMode(cf.mode)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	wf, err := load.Workflow(cf.workflow, cf.small)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	cfg := platform.DefaultClusterConfig()
	if *tcp {
		cfg.Spec = &platform.ClusterSpec{Machines: cfg.Machines, CM: simtime.DefaultCostModel(), AllTCP: true}
	}
	engine, err := platform.NewEngine(wf, mode, platform.Options{Trace: *trace}, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "engine: %v\n", err)
		return 1
	}
	defer engine.Cluster.Close()
	if *tcp {
		fmt.Fprintf(stdout, "cluster: %d machines over real TCP sockets\n", cfg.Machines)
	}
	for r := 0; r < cf.requests; r++ {
		var res platform.RunResult
		engine.Submit(func(out platform.RunResult) { res = out })
		engine.Cluster.Sim.Run()
		if res.Err != nil {
			fmt.Fprintf(stderr, "request %d failed: %v\n", r, res.Err)
			return 1
		}
		fmt.Fprintf(stdout, "request %d: latency %v (mode %v)\n", r, res.Latency, mode)
		fmt.Fprintf(stdout, "  result: %+v\n", res.Output)
		fmt.Fprintf(stdout, "  total work: %v  transfer: %v (%.1f%%)\n",
			res.Meter.Total(), res.Meter.TransferTotal(),
			100*float64(res.Meter.TransferTotal())/float64(res.Meter.Total()))
		tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "  function\twork\tserdes\tregister+map\tfault\tnetwork+storage")
		for _, fn := range slices.Sorted(maps.Keys(res.PerFunction)) {
			m := res.PerFunction[fn]
			fmt.Fprintf(tw, "  %s\t%v\t%v\t%v\t%v\t%v\n", fn, m.Total(), m.SerTotal(),
				m.Get(simtime.CatRegister)+m.Get(simtime.CatMap), m.Get(simtime.CatFault),
				m.Get(simtime.CatNetwork)+m.Get(simtime.CatStorage))
		}
		tw.Flush()
		if *trace {
			fmt.Fprintln(stdout, "  execution timeline:")
			platform.WriteTrace(stdout, res.Trace)
		}
	}
	return 0
}
