package main

import (
	"fmt"
	"io"

	"rmmap/internal/faults"
	"rmmap/internal/load"
	"rmmap/internal/memsim"
	"rmmap/internal/platform"
	"rmmap/internal/simtime"
)

func runChaos(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("chaos", stderr)
	cf := newClusterFlags(fs,
		use{"workflow", "finra", ""},
		use{"small", false, ""},
		use{"plan", "", "JSON fault plan (overrides -seed/-prob/-crash-* flags)"},
		use{"requests", 1, "back-to-back requests to run"},
		use{"replicas", 0, "backup machines per registration (0: replication off)"},
		use{"machines", 4, "cluster size"},
		use{"topology", "", ""},
		use{"pods", 16, "warm pods"},
		use{"workers", 0, "engine worker-pool size (0 = all cores, 1 = sequential); the fault schedule and outcome are identical at any setting"},
	)
	seed := fs.Uint64("seed", 20260805, "fault-plan seed; same seed, same schedule")
	prob := fs.Float64("prob", 0.1, "transient-fault probability on remote reads, doorbells and RPCs")
	endpoint := fs.String("endpoint", "", "restrict the RPC rule to one endpoint (e.g. rmmap.auth)")
	crashMachine := fs.Int("crash-machine", -1, "machine to crash (-1: none)")
	crashAt := fs.Duration("crash-at", 0, "virtual-time instant of the crash (e.g. 100us)")
	deadline := fs.Duration("deadline", 0, "per-request deadline in virtual time (0: none); an expired request sheds instead of climbing the ladder")
	noRecovery := fs.Bool("no-recovery", false, "negative control: disable the recovery ladder")
	maxReexecs := fs.Int("max-reexecs", platform.DefaultMaxReexecutions, "producer re-execution budget per request")
	degradeAfter := fs.Int("degrade-after", platform.DefaultDegradeAfter, "edge failures before falling back to messaging")
	trace := fs.Bool("trace", false, "print the per-invocation execution timeline")
	ctrlJournal := fs.String("ctrl-journal", "", "write the coordinator's durable image (snapshot + journal) to this file after the run")
	if err := fs.Parse(args); err != nil {
		return parseExit(err)
	}

	wf, err := load.Workflow(cf.workflow, cf.small)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	var plan faults.Plan
	if cf.plan != "" {
		plan, err = faults.LoadPlan(cf.plan)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	} else {
		plan = faults.Plan{Seed: *seed}
		if *prob > 0 {
			plan.Rules = []faults.Rule{
				{Site: faults.SiteRDMARead, Target: faults.AnyMachine, Prob: *prob},
				{Site: faults.SiteDoorbell, Target: faults.AnyMachine, Prob: *prob},
				{Site: faults.SiteRPC, Target: faults.AnyMachine, Endpoint: *endpoint, Prob: *prob},
			}
		}
		if *crashMachine >= 0 {
			plan.Crashes = []faults.Crash{{
				Machine: memsim.MachineID(*crashMachine),
				At:      simtime.Time(crashAt.Nanoseconds()),
			}}
		}
	}

	rec := platform.DefaultRecoveryPolicy()
	rec.MaxReexecutions = *maxReexecs
	rec.DegradeAfter = *degradeAfter
	opts := platform.Options{
		Trace:    *trace,
		Recovery: rec,
		Replicas: cf.replicas,
		Workers:  cf.workers,
	}
	if *noRecovery {
		opts.Recovery = nil
	}
	b, err := cf.builder()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	cluster, err := b.WithChaos(plan, rec.Retry).Build()
	if err != nil {
		fmt.Fprintf(stderr, "cluster: %v\n", err)
		return 1
	}
	defer cluster.Close()
	engine, err := platform.NewEngineOn(cluster, wf, platform.ModeRMMAPPrefetch, opts, cf.pods)
	if err != nil {
		fmt.Fprintf(stderr, "engine: %v\n", err)
		return 1
	}

	if cf.plan != "" {
		fmt.Fprintf(stdout, "plan: %s (seed=%d rules=%d crashes=%d partitions=%d coord-crashes=%d coord-partitions=%d)",
			cf.plan, plan.Seed, len(plan.Rules), len(plan.Crashes), len(plan.Partitions),
			len(plan.CoordCrashes), len(plan.CoordPartitions))
	} else {
		fmt.Fprintf(stdout, "plan: seed=%d prob=%g", *seed, *prob)
		if *crashMachine >= 0 {
			fmt.Fprintf(stdout, " crash=machine%d@%v", *crashMachine, simtime.Duration((*crashAt).Nanoseconds()))
		}
	}
	if cf.replicas > 0 {
		fmt.Fprintf(stdout, " replicas=%d", cf.replicas)
	}
	if *noRecovery {
		fmt.Fprintf(stdout, " recovery=off")
	}
	if *deadline > 0 {
		fmt.Fprintf(stdout, " deadline=%v", simtime.Duration(deadline.Nanoseconds()))
	}
	fmt.Fprintln(stdout)

	requests := max(cf.requests, 1)
	results := make([]platform.RunResult, 0, requests)
	var submit func()
	submit = func() {
		engine.SubmitTenant(
			platform.SubmitInfo{Deadline: simtime.Duration(deadline.Nanoseconds())},
			func(out platform.RunResult) {
				results = append(results, out)
				if len(results) < requests {
					submit()
				}
			})
	}
	submit()
	engine.Cluster.Sim.Run()

	fmt.Fprintf(stdout, "injected faults: %d\n", cluster.Injector.Total())

	var completed, shed, failed int
	var retries, waits, failovers, degradations, reexecs int
	var backoff simtime.Duration
	for i, res := range results {
		retries += res.Retries
		waits += res.PartitionWaits
		failovers += res.Failovers
		degradations += res.Fallbacks
		reexecs += res.Reexecs
		backoff += res.Meter.Get(simtime.CatRetry)
		switch {
		case res.Shed:
			shed++
			fmt.Fprintf(stdout, "request %d SHED (%s) after %v: %v\n", i, res.ShedReason, res.Latency, res.Err)
		case res.Err != nil:
			failed++
			fmt.Fprintf(stdout, "request %d FAILED: %v\n", i, res.Err)
		default:
			completed++
			fmt.Fprintf(stdout, "request %d completed: latency %v result %+v\n", i, res.Latency, res.Output)
		}
	}
	fmt.Fprintf(stdout, "requests: completed=%d shed=%d failed=%d\n", completed, shed, failed)
	fmt.Fprintf(stdout, "recovery: retries=%d (backoff %v under %v) waits=%d failovers=%d degradations=%d reexecs=%d sheds=%d\n",
		retries, backoff, simtime.CatRetry, waits, failovers, degradations, reexecs, shed)
	if last := results[len(results)-1]; last.ReplicatedBytes > 0 || last.LeaseExpiries > 0 {
		fmt.Fprintf(stdout, "liveness: replicated %d bytes, lease expiries=%d\n",
			last.ReplicatedBytes, last.LeaseExpiries)
	}
	coord := engine.Coordinator()
	cs := coord.Stats()
	fmt.Fprintf(stdout, "ctrl: epoch=%d down=%v appends=%d journal=%dB snapshots=%d replays=%d crashes=%d recoveries=%d deferred=%d drift=%d/%d gossip-rounds=%d\n",
		coord.Epoch(), coord.Down(), cs.Appends, cs.JournalBytes, cs.Snapshots, cs.Replays,
		cs.Crashes, cs.Recoveries, cs.Deferred, cs.DriftDropped, cs.DriftAdopted, engine.GossipRounds())
	if *ctrlJournal != "" {
		if err := coord.SaveFile(*ctrlJournal); err != nil {
			fmt.Fprintf(stderr, "ctrl-journal: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "ctrl journal written to %s (audit with rmmap plan -verify)\n", *ctrlJournal)
	}
	if *trace {
		fmt.Fprintln(stdout, "execution timeline (last request):")
		platform.WriteTrace(stdout, results[len(results)-1].Trace)
	}
	// A failed (non-shed) request means the recovery ladder ran out of
	// rungs — budget exhausted. That is the non-zero exit the CI soak keys
	// off; deadline sheds are the overload layer working as designed.
	if failed > 0 {
		return 1
	}
	return 0
}
