// Command rmmap is the reproduction's one binary: every table, figure and
// artifact it reports comes from one of its subcommands. "rmmap" or
// "rmmap help" prints the subcommand table; "rmmap <sub> -h" lists one
// subcommand's flags. Everything except net runs in deterministic virtual
// time, so a command prints byte-identical output on every rerun and at
// any -workers setting.
//
//	rmmap bench -list
//	rmmap bench [-scale 0.25] [fig11a fig14 ...]
//	rmmap bench -json [-scale 0.25]
//	rmmap bench -topology spine-leaf -json
//	rmmap bench -cpuprofile cpu.pb.gz -memprofile mem.pb.gz fig14
//
// bench regenerates the paper's figures (§5, §2.3) and the design
// ablations (abl-*), all of them when no ID is given. -scale shrinks
// payloads; 1.0 is the calibration EXPERIMENTS.md documents. -json also
// writes the tables it prints to BENCH_fig14.json; with no ID it runs
// fig14 with its failover and topology-cliff ablations. -topology runs
// the Fig-14 grid and the fan-out ablation on a platformbuilder recipe or
// topology JSON file (PLATFORMS.md). Host cost is the perf ledger's job
// (benchmark/).
//
//	rmmap chaos [-workflow finra] [-small] [-seed 20260805] [-prob 0.1]
//	            [-crash-machine 1 -crash-at 100us] [-plan plan.json]
//	            [-topology two-rack | -topology topo.json]
//	            [-requests 1] [-deadline 0] [-replicas 1]
//	            [-no-recovery] [-trace] [-ctrl-journal ctrl.save]
//
// chaos runs a built-in workflow under a seeded fault plan (DESIGN.md §7,
// §9, §13) and reports what the recovery ladder did; it exits 1 when a
// request exhausts its recovery budget. A -plan file (examples in
// cmd/rmmap/plans/) replaces the flag-built plan. -ctrl-journal dumps the
// coordinator's durable image for rmmap plan -verify.
//
//	rmmap load [-workflow wordcount] [-small] [-rate 200] [-burst-rate 0]
//	           [-burst-every 500ms] [-burst-len 100ms] [-horizon 2s]
//	           [-tenants 1000] [-deadline 0] [-seed 1] [-plan plan.json]
//	           [-topology two-rack | -topology topo.json]
//	           [-queue-limit 256] [-max-inflight 64]
//	           [-curve 0.25,0.5,1,2,4] [-save-trace t.jsonl | -trace t.jsonl]
//	           [-json BENCH_scale.json]
//
// load drives open-loop arrivals through the admission-controlled engine,
// optionally under a fault plan, and writes the BENCH_scale.json scale
// report in bench -json's schema (DESIGN.md §11). Tenants label the
// arrivals; admission ignores them. A rate no schedule can advance at
// exits 1.
//
//	rmmap net [-rows 5000] [-addr 127.0.0.1:0]
//
// net rmaps a producer's dataframe into a consumer over a real loopback
// TCP socket: every page the consumer touches is a network request, and
// nothing is serialized. Its output names the ephemeral port.
//
//	rmmap plan [-workflow finra|ml-training|ml-prediction|wordcount] [-full] [-json]
//	rmmap plan -verify ctrl.save
//
// plan prints a workflow's static address plan (§4.2). -verify replays a
// coordinator save file (DESIGN.md §13) and checks every journaled slot
// for overlaps; it exits 2 on a violation, naming both slots.
//
//	rmmap trace -list
//	rmmap trace -workload FINRA -mode "rmmap(prefetch)" [-scale 0.25] \
//	    [-requests 3] [-topology spine-leaf] [-metrics metrics.json] \
//	    [-chrome-trace trace.json] [-jsonl spans.jsonl] \
//	    [-profile profile.folded]
//	rmmap trace -workload ML-prediction -openloop 200 -duration 500ms \
//	    -metrics metrics.json
//
// trace runs one workload under one mode and writes a metrics snapshot, a
// Chrome trace (chrome://tracing, ui.perfetto.dev), a span JSONL and a
// folded virtual-time profile. -openloop replays a fixed-rate schedule
// and writes metrics only; if some open-loop requests fail, the snapshot
// still covers the completed ones.
//
//	rmmap workflow [-workflow finra] [-mode rmmap-prefetch] [-small] [-requests 3] [-trace] [-tcp]
//
// workflow prints one request's latency, per-function work breakdown and
// result; -tcp connects the machines over real loopback sockets.
//
// Every -mode takes a report name (messaging, storage(pocket),
// storage(rdma), rmmap, rmmap(prefetch)) or an alias (pocket,
// storage-pocket, rdma, drtm, storage-rdma, storage-drtm, prefetch,
// rmmap-prefetch), in any case.
package main

import (
	"fmt"
	"io"
	"os"
)

type subcommand struct {
	name    string
	summary string
	run     func(args []string, stdout, stderr io.Writer) int
}

var subcommands = []subcommand{
	{"bench", "regenerate the paper's tables and figures (§5) and the design ablations", runBench},
	{"chaos", "run a workflow under a seeded fault plan and report the recovery ladder", runChaos},
	{"load", "drive open-loop multi-tenant load through admission control", runLoad},
	{"net", "rmap a dataframe across a real loopback TCP socket", runNet},
	{"plan", "print a workflow's static address plan, or audit a coordinator save file", runPlan},
	{"trace", "run one workload and write metrics, Chrome trace, span and profile artifacts", runTrace},
	{"workflow", "run a built-in workflow under one transfer mode", runWorkflow},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run dispatches to the subcommand args[0] names and returns the exit
// status: the subcommand's own, 0 for help, 2 for an unknown subcommand.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 || args[0] == "help" {
		usage(stdout)
		return 0
	}
	for _, s := range subcommands {
		if s.name == args[0] {
			return s.run(args[1:], stdout, stderr)
		}
	}
	fmt.Fprintf(stderr, "rmmap: unknown subcommand %q\n\n", args[0])
	usage(stderr)
	return 2
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: rmmap <subcommand> [flags]")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "subcommands:")
	for _, s := range subcommands {
		fmt.Fprintf(w, "  %-9s %s\n", s.name, s.summary)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, `run "rmmap <subcommand> -h" for its flags`)
}
