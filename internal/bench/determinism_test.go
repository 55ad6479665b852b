package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"rmmap/internal/admit"
	"rmmap/internal/faults"
	"rmmap/internal/load"
	"rmmap/internal/obs"
	"rmmap/internal/platform"
	"rmmap/internal/simtime"
	"rmmap/internal/workloads"
)

// Differential determinism suite: the parallel engine's acceptance
// criterion is that every run artifact — exported spans, metrics
// snapshots, fig14 rows — is byte-identical at any worker
// count. These tests run each scenario at Workers ∈ {1, 4, 8} (1 being the
// sequential behavioral reference) and compare the serialized artifacts
// byte for byte. CI runs them under -race -count=2, so scheduling
// nondeterminism that leaks into an artifact shows up as a diff here and
// any unsynchronized engine state shows up as a race report.

var diffWorkers = []int{1, 4, 8}

// runArtifacts holds one run's serialized artifacts.
type runArtifacts struct {
	spans   []byte // canonical span JSONL (sorted, one span per line)
	metrics []byte // obs registry snapshot JSON
	row     []byte // the run's fig14 row (or a scenario summary)
}

// spanJSONL serializes a trace in canonical order, one JSON span per line.
func spanJSONL(t *testing.T, trace []platform.Span) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range obs.SortSpans(platform.ExportSpans(trace)) {
		if err := enc.Encode(s); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// fig14RowBytes serializes the cells runFig14 prints for this run (the
// vs-best-baseline ratio aside, which needs the whole workflow's grid).
func fig14RowBytes(t *testing.T, name string, mode platform.Mode, e *platform.Engine, res platform.RunResult) []byte {
	t.Helper()
	b, err := json.Marshal(append([]any{name, mode.String(), res.Latency}, fig14Counters(e.Cluster, res)...))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// runFig14Cell runs one fig14 cell with tracing and metrics on. It also
// checks the cell's per-category virtual-time breakdown: every category
// is positive and their sum is at least the critical-path latency
// (parallelism makes total work larger, never smaller).
func runFig14Cell(t *testing.T, builder WorkflowBuilder, mode platform.Mode, workers int) runArtifacts {
	t.Helper()
	reg := obs.NewRegistry()
	e, err := platform.NewEngine(builder.Build(), mode,
		platform.Options{Trace: true, Obs: reg, Workers: workers}, benchCluster())
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	var total simtime.Duration
	res.Meter.Each(func(c simtime.Category, d simtime.Duration) {
		if d <= 0 {
			t.Errorf("%s/%v: category %s has non-positive total %d", builder.Name, mode, c, d)
		}
		total += d
	})
	if total == 0 || total < res.Latency {
		t.Errorf("%s/%v: breakdown total %v < latency %v", builder.Name, mode, total, res.Latency)
	}
	var metrics bytes.Buffer
	if err := reg.Snapshot().WriteJSON(&metrics); err != nil {
		t.Fatal(err)
	}
	return runArtifacts{
		spans:   spanJSONL(t, res.Trace),
		metrics: metrics.Bytes(),
		row:     fig14RowBytes(t, builder.Name, mode, e, res),
	}
}

func diffArtifacts(t *testing.T, scenario string, ref, got runArtifacts, workers int) {
	t.Helper()
	if !bytes.Equal(ref.spans, got.spans) {
		t.Errorf("%s: span JSONL differs between workers=1 and workers=%d", scenario, workers)
	}
	if !bytes.Equal(ref.metrics, got.metrics) {
		t.Errorf("%s: metrics snapshot differs between workers=1 and workers=%d\n--- workers=1:\n%s\n--- workers=%d:\n%s",
			scenario, workers, ref.metrics, workers, got.metrics)
	}
	if !bytes.Equal(ref.row, got.row) {
		t.Errorf("%s: fig14 row differs between workers=1 and workers=%d\n--- workers=1:\n%s\n--- workers=%d:\n%s",
			scenario, workers, ref.row, workers, got.row)
	}
}

// TestDifferentialDeterminismFig14 runs every fig14 workflow under every
// transfer mode at each worker count and requires byte-identical artifacts.
func TestDifferentialDeterminismFig14(t *testing.T) {
	for _, builder := range Workflows(goldenScale) {
		for _, mode := range platform.AllModes() {
			scenario := fmt.Sprintf("%s/%v", builder.Name, mode)
			ref := runFig14Cell(t, builder, mode, 1)
			if len(ref.spans) == 0 {
				t.Fatalf("%s: reference run produced no spans", scenario)
			}
			for _, w := range diffWorkers[1:] {
				diffArtifacts(t, scenario, ref, runFig14Cell(t, builder, mode, w), w)
			}
		}
	}
}

// runHighContentionCell runs the fan-out ML-prediction workflow with a
// page cache squeezed far below the working set, so every worker count
// drives constant eviction churn through the sharded cache and frame
// locks.
func runHighContentionCell(t *testing.T, workers int) runArtifacts {
	t.Helper()
	cfg := workloads.DefaultMLPredict()
	cfg.Images = 75
	cfg.Trees = 16
	reg := obs.NewRegistry()
	e, err := platform.NewEngine(workloads.MLPredict(cfg), platform.ModeRMMAPPrefetch,
		platform.Options{
			Trace:   true,
			Obs:     reg,
			Workers: workers,
			// 2 pages per machine: far below the model + image working
			// set, so admissions continuously evict (the seeded runs pin
			// evictions > 0 below).
			PageCacheBytes: 2 * 4096,
		}, benchCluster())
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Cache.Evictions == 0 {
		t.Fatalf("workers=%d: no evictions — the cache budget no longer forces churn", workers)
	}
	var metrics bytes.Buffer
	if err := reg.Snapshot().WriteJSON(&metrics); err != nil {
		t.Fatal(err)
	}
	return runArtifacts{
		spans:   spanJSONL(t, res.Trace),
		metrics: metrics.Bytes(),
		row:     fig14RowBytes(t, "ML-prediction-tiny-cache", platform.ModeRMMAPPrefetch, e, res),
	}
}

// TestDifferentialDeterminismHighContention is the lock-stress leg of the
// suite: a wide fan-out workflow (16 predictor pods per request) with a
// tiny page-cache budget keeps the sharded frame locks, cache shards, and
// eviction scan under continuous cross-pod contention. Artifacts must
// still be byte-identical at every worker count; CI runs this under -race,
// where any unsynchronized access to the sharded structures also surfaces.
func TestDifferentialDeterminismHighContention(t *testing.T) {
	ref := runHighContentionCell(t, 1)
	if len(ref.spans) == 0 {
		t.Fatal("reference run produced no spans")
	}
	for _, w := range []int{8} {
		diffArtifacts(t, "ml-predict-tiny-cache", ref, runHighContentionCell(t, w), w)
	}
}

// TestDifferentialDeterminismOpenLoop is the open-loop leg: a fixed-rate
// ML-prediction load in fig12's serving configuration (16-tree model,
// throughput-sized batch) at small scale. The whole load.Result —
// counters, latencies, busy-pod samples — must be identical at every
// worker count.
func TestDifferentialDeterminismOpenLoop(t *testing.T) {
	cfg := workloads.DefaultMLPredict()
	cfg.Images = scaleInt(300, goldenScale)
	cfg.Trees = 16
	run := func(workers int) load.Result {
		e, err := platform.NewEngine(workloads.MLPredict(cfg), platform.ModeRMMAPPrefetch,
			platform.Options{Workers: workers}, benchCluster())
		if err != nil {
			t.Fatal(err)
		}
		return load.Replay(e, load.Periodic(100, 300*simtime.Millisecond), 300*simtime.Millisecond)
	}
	ref := run(diffWorkers[0])
	if ref.Completed == 0 || ref.Failed+ref.Shed > 0 || len(ref.BusyPods) == 0 {
		t.Fatalf("reference run unhealthy: completed=%d failed=%d shed=%d samples=%d",
			ref.Completed, ref.Failed, ref.Shed, len(ref.BusyPods))
	}
	for _, w := range diffWorkers[1:] {
		if got := run(w); !reflect.DeepEqual(ref, got) {
			t.Errorf("open-loop load.Result differs between workers=1 and workers=%d", w)
		}
	}
}

// chaosScenario mirrors one rmmap chaos CLI invocation of an example plan.
type chaosScenario struct {
	name string
	plan string // path to the checked-in plan JSON
	opts platform.Options
}

func chaosScenarios() []chaosScenario {
	rec := platform.DefaultRecoveryPolicy()
	return []chaosScenario{
		// rmmap chaos -workflow finra -small -replicas 1 -plan plans/crash-failover.json
		{
			name: "crash-failover",
			plan: "../../cmd/rmmap/plans/crash-failover.json",
			opts: platform.Options{Trace: true, Recovery: rec, Replicas: 1},
		},
		// rmmap chaos -workflow finra -small -replicas 1 -plan plans/partition-heal.json
		{
			name: "partition-heal",
			plan: "../../cmd/rmmap/plans/partition-heal.json",
			opts: platform.Options{Trace: true, Recovery: rec, Replicas: 1},
		},
		// rmmap chaos -workflow finra -small -replicas 1 -plan plans/coordinator-crash.json
		{
			name: "coordinator-crash",
			plan: "../../cmd/rmmap/plans/coordinator-crash.json",
			opts: platform.Options{Trace: true, Recovery: rec, Replicas: 1},
		},
		// rmmap chaos -workflow finra -small -replicas 1 -plan plans/coordinator-recover-partition.json
		{
			name: "coordinator-recover-partition",
			plan: "../../cmd/rmmap/plans/coordinator-recover-partition.json",
			opts: platform.Options{Trace: true, Recovery: rec, Replicas: 1},
		},
	}
}

func runChaosScenario(t *testing.T, sc chaosScenario, workers int) runArtifacts {
	t.Helper()
	plan, err := faults.LoadPlan(sc.plan)
	if err != nil {
		t.Fatal(err)
	}
	opts := sc.opts
	opts.Workers = workers
	reg := obs.NewRegistry()
	opts.Obs = reg
	cluster := platform.NewChaosCluster(4, simtime.DefaultCostModel(), plan, opts.Recovery.Retry)
	e, err := platform.NewEngineOn(cluster, workloads.FINRA(workloads.SmallFINRA()),
		platform.ModeRMMAPPrefetch, opts, 16)
	if err != nil {
		t.Fatal(err)
	}
	var res platform.RunResult
	e.Submit(func(out platform.RunResult) { res = out })
	e.Cluster.Sim.Run()
	if res.Err != nil {
		t.Fatalf("%s (workers=%d): %v", sc.name, workers, res.Err)
	}
	var metrics bytes.Buffer
	if err := reg.Snapshot().WriteJSON(&metrics); err != nil {
		t.Fatal(err)
	}
	cs := e.Coordinator().Stats()
	summary, err := json.Marshal(map[string]any{
		"latency_ns":    int64(res.Latency),
		"retries":       res.Retries,
		"failovers":     res.Failovers,
		"fallbacks":     res.Fallbacks,
		"reexecs":       res.Reexecs,
		"waits":         res.PartitionWaits,
		"injected":      cluster.Injector.Total(),
		"output":        fmt.Sprint(res.Output),
		"ctrl_epoch":    e.Coordinator().Epoch(),
		"ctrl_appends":  cs.Appends,
		"ctrl_replays":  cs.Replays,
		"ctrl_deferred": cs.Deferred,
	})
	if err != nil {
		t.Fatal(err)
	}
	return runArtifacts{
		spans:   spanJSONL(t, res.Trace),
		metrics: metrics.Bytes(),
		row:     summary,
	}
}

// TestDifferentialDeterminismChaosPlans replays the example chaos plans
// shipped with rmmap chaos (crash-failover, partition-heal, and the two
// coordinator outage schedules) in-process at each worker count and
// requires byte-identical artifacts: fault injection, failover, partition
// waits, and coordinator crash/recovery (epoch bumps, journal appends,
// deferred directory ops) must all land on the same virtual-time instants
// regardless of parallelism.
func TestDifferentialDeterminismChaosPlans(t *testing.T) {
	for _, sc := range chaosScenarios() {
		ref := runChaosScenario(t, sc, 1)
		if len(ref.spans) == 0 {
			t.Fatalf("%s: reference run produced no spans", sc.name)
		}
		for _, w := range diffWorkers[1:] {
			diffArtifacts(t, sc.name, ref, runChaosScenario(t, sc, w), w)
		}
	}
}

// TestDifferentialDeterminismSoak is the BENCH_scale.json leg of the
// suite: an open-loop multi-tenant soak (bursty arrivals, deadlines,
// admission control) under each fault plan must render to byte-identical
// rmmap load -json bytes at Workers ∈ {1, 8} and across two fresh runs.
// The plans are an inline RPC-fault rule with a partition window, run
// with a goodput curve, and the two soak-timed plans CI's chaos soak runs.
// Each plan must fire: a crash that lands before the first arrival, or a
// partition no request crosses, would make the comparison vacuous.
func TestDifferentialDeterminismSoak(t *testing.T) {
	examples := load.SoakSpec{
		Gen: load.BurstSpec{BaseRate: 150, BurstRate: 500, BurstEvery: 100 * simtime.Millisecond,
			BurstLen: 25 * simtime.Millisecond, Horizon: 300 * simtime.Millisecond, Tenants: 50,
			Deadline: 10 * simtime.Millisecond, Seed: 20260805},
		Replicas: 1,
	}
	for _, sc := range []struct {
		name, path string
		spec       load.SoakSpec
		fired      func(load.Result) bool
	}{
		{name: "rule-partition", spec: load.SoakSpec{
			Gen: load.BurstSpec{BaseRate: 150, BurstRate: 600, BurstEvery: 200 * simtime.Millisecond,
				BurstLen: 50 * simtime.Millisecond, Horizon: 400 * simtime.Millisecond, Tenants: 32,
				Deadline: 20 * simtime.Millisecond, Seed: 21},
			Plan: faults.Plan{Seed: 99,
				Rules: []faults.Rule{{Site: faults.SiteRPC, Target: faults.AnyMachine, Prob: 0.05}},
				Partitions: []faults.Partition{{From: 1, To: 0,
					After: simtime.Time(100 * simtime.Millisecond), Until: simtime.Time(150 * simtime.Millisecond)}}},
			CurveMultipliers: []float64{0.5, 1, 2},
		}, fired: func(r load.Result) bool { return r.PartitionWaits >= 1 }},
		{name: "crash-failover", path: "../../cmd/rmmap/plans/soak-crash-failover.json", spec: examples,
			fired: func(r load.Result) bool { return r.Failovers+r.Reexecs >= 1 }},
		{name: "partition-heal", path: "../../cmd/rmmap/plans/soak-partition-heal.json", spec: examples,
			fired: func(r load.Result) bool { return r.PartitionWaits >= 1 }},
	} {
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			spec := sc.spec
			spec.Workflow, spec.Small, spec.Mode = "wordcount", true, platform.ModeRMMAP
			spec.Admission = admit.Config{QueueLimit: 64, MaxInflight: 32}
			if sc.path != "" {
				p, err := faults.LoadPlan(sc.path)
				if err != nil {
					t.Fatal(err)
				}
				spec.Plan = p
			}
			render := func(workers int) []byte {
				spec := spec
				spec.Workers = workers
				soak, err := load.RunSoak(spec)
				if err != nil {
					t.Fatal(err)
				}
				if soak.Result.Completed == 0 || len(soak.Curve) != len(spec.CurveMultipliers) {
					t.Fatalf("soak did no work or lost its curve: %+v", soak.Result)
				}
				if r := soak.Result; !sc.fired(r) {
					t.Fatalf("plan did not fire: failovers %d, reexecs %d, partition waits %d",
						r.Failovers, r.Reexecs, r.PartitionWaits)
				}
				var buf bytes.Buffer
				rep := Report{Topology: "flat", Experiments: []ReportRun{{ID: "soak", Tables: SoakTables(soak)}}}
				if err := rep.WriteJSON(&buf); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes()
			}
			ref := render(1)
			if got := render(8); !bytes.Equal(ref, got) {
				t.Errorf("soak report differs between workers=1 and workers=8\n--- workers=1:\n%s\n--- workers=8:\n%s", ref, got)
			}
			if got := render(1); !bytes.Equal(ref, got) {
				t.Error("soak report differs across fresh runs")
			}
		})
	}
}
