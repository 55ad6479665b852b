package platform

import (
	"errors"
	"strings"
	"testing"

	"rmmap/internal/faults"
	"rmmap/internal/memsim"
	"rmmap/internal/objrt"
	"rmmap/internal/simtime"
)

// chaosSeed is the seed every chaos schedule in the repo derives from; the
// fault sequences, and therefore the recovery paths, reproduce exactly.
const chaosSeed = 20260805

// chaosFanWorkflow is src → 4 workers → sink with a verifiable total. The
// workers land on different machines than src, so the src→worker edges are
// genuinely remote — sequential pipelines co-locate on one pod and never
// cross the fabric.
func chaosFanWorkflow(n int) *Workflow {
	const width = 4
	return &Workflow{
		Name: "chaos-fan",
		Functions: []*FunctionSpec{
			{Name: "src", Instances: 1, Handler: func(ctx *Ctx) (objrt.Obj, error) {
				vals := make([]int64, n)
				for i := range vals {
					vals[i] = int64(i + 1)
				}
				ctx.ChargeCompute(8 * n)
				return ctx.RT.NewIntList(vals)
			}},
			{Name: "worker", Instances: width, Handler: func(ctx *Ctx) (objrt.Obj, error) {
				in := ctx.Inputs[0]
				cnt, err := in.Len()
				if err != nil {
					return objrt.Obj{}, err
				}
				sum := int64(0)
				for i := ctx.Instance; i < cnt; i += ctx.Instances {
					e, err := in.Index(i)
					if err != nil {
						return objrt.Obj{}, err
					}
					v, err := e.Int()
					if err != nil {
						return objrt.Obj{}, err
					}
					sum += v
				}
				ctx.ChargeCompute(8 * cnt / ctx.Instances)
				return ctx.RT.NewInt(sum)
			}},
			{Name: "sink", Instances: 1, Handler: func(ctx *Ctx) (objrt.Obj, error) {
				total := int64(0)
				for _, in := range ctx.Inputs {
					v, err := in.Int()
					if err != nil {
						return objrt.Obj{}, err
					}
					total += v
				}
				ctx.Report(total)
				return objrt.Obj{}, nil
			}},
		},
		Edges: []Edge{{"src", "worker"}, {"worker", "sink"}},
	}
}

// runChaos runs wf on a fresh chaos cluster under the given plan. rec ==
// nil is the negative control (no recovery).
func runChaos(t *testing.T, wf *Workflow, plan faults.Plan, rec *RecoveryPolicy) RunResult {
	t.Helper()
	return runChaosWith(t, wf, plan, Options{Trace: true, Recovery: rec})
}

// runChaosWith is runChaos with full Options control (replication knobs).
func runChaosWith(t *testing.T, wf *Workflow, plan faults.Plan, opts Options) RunResult {
	t.Helper()
	retry := faults.DefaultRetryPolicy()
	if opts.Recovery != nil && opts.Recovery.Retry.MaxAttempts > 0 {
		retry = opts.Recovery.Retry
	}
	cluster := NewChaosCluster(3, simtime.DefaultCostModel(), plan, retry)
	e, err := NewEngineOn(cluster, wf, ModeRMMAPPrefetch, opts, 6)
	if err != nil {
		t.Fatal(err)
	}
	res, _ := e.Run()
	return res
}

func runChaosPipeline(t *testing.T, plan faults.Plan, rec *RecoveryPolicy) RunResult {
	t.Helper()
	return runChaos(t, pipelineWorkflow(1000), plan, rec)
}

func runChaosFan(t *testing.T, plan faults.Plan, rec *RecoveryPolicy) RunResult {
	t.Helper()
	return runChaos(t, chaosFanWorkflow(1000), plan, rec)
}

const pipelineSum = int64(1000 * 1001 / 2)

func findSpan(t *testing.T, spans []Span, node string) Span {
	t.Helper()
	for _, s := range spans {
		if s.Node == node {
			return s
		}
	}
	t.Fatalf("no span for %s in %d spans", node, len(spans))
	return Span{}
}

// TestChaosCrashReexecution is the headline scenario: the producer's
// machine crashes after the producer finishes but before the consumer maps
// its state, taking the shadow frames with it. With recovery enabled the
// engine re-executes the producer on a healthy machine and the workflow
// completes byte-correct; the identical schedule with recovery disabled
// fails. Both outcomes are deterministic from the seed.
func TestChaosCrashReexecution(t *testing.T) {
	// Clean reference run pins down where and when the producer runs.
	ref := runChaosPipeline(t, faults.Plan{Seed: chaosSeed}, DefaultRecoveryPolicy())
	if ref.Err != nil || ref.Output != pipelineSum {
		t.Fatalf("clean run: err=%v output=%v", ref.Err, ref.Output)
	}
	prod := findSpan(t, ref.Trace, "produce#0")
	crashAt := prod.Start.Add(prod.Duration() / 2)
	plan := faults.Plan{
		Seed:    chaosSeed,
		Crashes: []faults.Crash{{Machine: memsim.MachineID(prod.Machine), At: crashAt}},
	}

	res := runChaosPipeline(t, plan, DefaultRecoveryPolicy())
	if res.Err != nil {
		t.Fatalf("recovery run failed: %v", res.Err)
	}
	if res.Output != pipelineSum {
		t.Fatalf("recovered output = %v, want %v (byte-correct re-execution)", res.Output, pipelineSum)
	}
	if res.Reexecs < 1 {
		t.Fatalf("expected at least one producer re-execution, got %d", res.Reexecs)
	}
	redos := 0
	for _, s := range res.Trace {
		if !s.Redo {
			continue
		}
		redos++
		if s.Machine == prod.Machine {
			t.Fatalf("redo of %s dispatched onto the crashed machine %d", s.Node, s.Machine)
		}
	}
	if redos == 0 {
		t.Fatalf("no redo span in trace")
	}

	// Negative control: identical schedule, recovery disabled.
	ctl := runChaosPipeline(t, plan, nil)
	if ctl.Err == nil {
		t.Fatalf("negative control completed despite the crash")
	}
	if !errors.Is(ctl.Err, memsim.ErrMachineCrashed) {
		t.Fatalf("negative control error = %v, want ErrMachineCrashed in chain", ctl.Err)
	}

	// Determinism: the whole recovery path replays identically.
	again := runChaosPipeline(t, plan, DefaultRecoveryPolicy())
	if again.Latency != res.Latency || again.Reexecs != res.Reexecs ||
		again.Retries != res.Retries || again.Output != res.Output {
		t.Fatalf("recovery run not deterministic:\n first: lat=%v reexec=%d retry=%d out=%v\nsecond: lat=%v reexec=%d retry=%d out=%v",
			res.Latency, res.Reexecs, res.Retries, res.Output,
			again.Latency, again.Reexecs, again.Retries, again.Output)
	}
}

// TestChaosTransientFaultsBoundedRetries injects probabilistic transient
// faults on reads and RPCs; the retry layer must absorb them within its
// attempt budget, charge the backoff to virtual time under CatRetry, and
// expose per-invocation retry counts in the trace.
func TestChaosTransientFaultsBoundedRetries(t *testing.T) {
	clean := runChaosFan(t, faults.Plan{Seed: chaosSeed}, DefaultRecoveryPolicy())
	// The fan run issues only a handful of remote operations, so a 30%
	// rule fires on some seeds and not others; this seed is one where the
	// per-(rule, target, requester) streams inject faults that the retry
	// budget fully absorbs (no re-execution needed).
	plan := faults.Plan{Seed: chaosSeed + 1, Rules: []faults.Rule{
		{Site: faults.SiteRDMARead, Target: faults.AnyMachine, Prob: 0.3},
		{Site: faults.SiteDoorbell, Target: faults.AnyMachine, Prob: 0.3},
		{Site: faults.SiteRPC, Target: faults.AnyMachine, Prob: 0.3},
	}}
	res := runChaosFan(t, plan, DefaultRecoveryPolicy())
	if res.Err != nil {
		t.Fatalf("transient-fault run failed: %v", res.Err)
	}
	if res.Output != pipelineSum {
		t.Fatalf("output = %v, want %v", res.Output, pipelineSum)
	}
	if res.Retries == 0 {
		t.Fatalf("no retries recorded despite 30%% fault probability")
	}
	if got := res.Meter.Get(simtime.CatRetry); got == 0 {
		t.Fatalf("retry backoff not charged to virtual time")
	}
	if res.Latency <= clean.Latency {
		t.Fatalf("faulted latency %v not above clean %v (backoff must cost virtual time)",
			res.Latency, clean.Latency)
	}
	// Per-invocation retry counts are visible in the trace and sum to the
	// request total.
	sum := 0
	for _, s := range res.Trace {
		sum += s.Retries
	}
	if sum != res.Retries {
		t.Fatalf("trace retries sum %d != request retries %d", sum, res.Retries)
	}
	var b strings.Builder
	WriteTrace(&b, res.Trace)
	if !strings.Contains(b.String(), "retries") {
		t.Fatalf("WriteTrace output missing retries column:\n%s", b.String())
	}
}

// TestChaosPersistentFailureDegradesToMessaging makes every rmap auth RPC
// fail permanently: the ladder retries, re-executes, and after DegradeAfter
// edge failures falls back to messaging, which completes the request.
func TestChaosPersistentFailureDegradesToMessaging(t *testing.T) {
	plan := faults.Plan{Seed: chaosSeed, Rules: []faults.Rule{
		{Site: faults.SiteRPC, Target: faults.AnyMachine, Endpoint: "rmmap.auth", Prob: 1.0},
	}}
	rec := DefaultRecoveryPolicy()
	res := runChaosFan(t, plan, rec)
	if res.Err != nil {
		t.Fatalf("degradation run failed: %v", res.Err)
	}
	if res.Output != pipelineSum {
		t.Fatalf("output = %v, want %v", res.Output, pipelineSum)
	}
	if res.Fallbacks == 0 {
		t.Fatalf("edge never degraded to messaging")
	}
	if res.Reexecs < rec.degradeAfter() || res.Reexecs > rec.maxReexecutions() {
		t.Fatalf("reexecs = %d, want within [DegradeAfter=%d, budget=%d]",
			res.Reexecs, rec.degradeAfter(), rec.maxReexecutions())
	}
	if res.Retries == 0 {
		t.Fatalf("persistent transient faults should still show transport retries")
	}

	// Without recovery the same schedule fails on the first remote rmap.
	ctl := runChaosFan(t, plan, nil)
	if ctl.Err == nil || !faults.IsTransient(ctl.Err) {
		t.Fatalf("negative control: err=%v, want injected fault in chain", ctl.Err)
	}
}

// TestChaosFailover is the headline replication scenario: the producer's
// machine crashes after replication completes; the consumer fails over to
// the backup's replica and the workflow completes byte-identical with ZERO
// re-executions — and in less virtual time than the same schedule forced
// through the re-execution rung (Replicas = 0 control).
func TestChaosFailover(t *testing.T) {
	opts := Options{Trace: true, Recovery: DefaultRecoveryPolicy(), Replicas: 1}

	// Clean reference pins down where and when the producer runs, and that
	// replication actually pushed bytes.
	clean := runChaosWith(t, pipelineWorkflow(1000), faults.Plan{Seed: chaosSeed}, opts)
	if clean.Err != nil || clean.Output != pipelineSum {
		t.Fatalf("clean run: err=%v output=%v", clean.Err, clean.Output)
	}
	if clean.ReplicatedBytes == 0 {
		t.Fatalf("Replicas=1 but no bytes replicated")
	}
	if clean.Failovers != 0 {
		t.Fatalf("clean run failed over %d times", clean.Failovers)
	}
	prod := findSpan(t, clean.Trace, "produce#0")
	crashAt := prod.Start.Add(prod.Duration() * 9 / 10)
	plan := faults.Plan{
		Seed:    chaosSeed,
		Crashes: []faults.Crash{{Machine: memsim.MachineID(prod.Machine), At: crashAt}},
	}

	res := runChaosWith(t, pipelineWorkflow(1000), plan, opts)
	if res.Err != nil {
		t.Fatalf("failover run failed: %v", res.Err)
	}
	if res.Output != pipelineSum {
		t.Fatalf("failover output = %v, want %v (byte-identical)", res.Output, pipelineSum)
	}
	if res.Failovers < 1 {
		t.Fatalf("no failover recorded despite producer crash with a replica")
	}
	if res.Reexecs != 0 {
		t.Fatalf("failover run re-executed %d times; replication should make re-execution unnecessary", res.Reexecs)
	}
	// Per-invocation failovers surface in the trace and sum to the total.
	sum := 0
	for _, s := range res.Trace {
		sum += s.Failovers
	}
	if sum != res.Failovers {
		t.Fatalf("trace failovers sum %d != request failovers %d", sum, res.Failovers)
	}

	// Control arm: the identical schedule with replication forced off must
	// still recover — via re-execution — and pay more virtual time for it.
	ctlOpts := opts
	ctlOpts.Replicas = 0
	ctl := runChaosWith(t, pipelineWorkflow(1000), plan, ctlOpts)
	if ctl.Err != nil || ctl.Output != pipelineSum {
		t.Fatalf("Replicas=0 control: err=%v output=%v", ctl.Err, ctl.Output)
	}
	if ctl.Reexecs < 1 {
		t.Fatalf("Replicas=0 control recovered without re-execution (reexecs=%d)", ctl.Reexecs)
	}
	if ctl.Failovers != 0 || ctl.ReplicatedBytes != 0 {
		t.Fatalf("Replicas=0 control replicated/failed over: %d/%d", ctl.ReplicatedBytes, ctl.Failovers)
	}
	if res.Latency >= ctl.Latency {
		t.Fatalf("failover latency %v not below re-execution latency %v", res.Latency, ctl.Latency)
	}

	// Determinism: the whole failover path replays identically.
	again := runChaosWith(t, pipelineWorkflow(1000), plan, opts)
	if again.Latency != res.Latency || again.Failovers != res.Failovers ||
		again.Reexecs != res.Reexecs || again.Output != res.Output ||
		again.ReplicatedBytes != res.ReplicatedBytes {
		t.Fatalf("failover run not deterministic:\n first: lat=%v fo=%d reexec=%d repl=%d out=%v\nsecond: lat=%v fo=%d reexec=%d repl=%d out=%v",
			res.Latency, res.Failovers, res.Reexecs, res.ReplicatedBytes, res.Output,
			again.Latency, again.Failovers, again.Reexecs, again.ReplicatedBytes, again.Output)
	}
}

// TestChaosPartitionHeals: an asymmetric link partition between consumer
// and producer is suspicion, not death — the ladder's partition rung parks
// and retries the consumer until the window lifts, without failing over or
// re-executing (the negative control for crash-vs-partition telling).
func TestChaosPartitionHeals(t *testing.T) {
	opts := Options{Trace: true, Recovery: DefaultRecoveryPolicy(), Replicas: 1}
	clean := runChaosWith(t, chaosFanWorkflow(1000), faults.Plan{Seed: chaosSeed}, opts)
	if clean.Err != nil || clean.Output != pipelineSum {
		t.Fatalf("clean run: err=%v output=%v", clean.Err, clean.Output)
	}
	src := findSpan(t, clean.Trace, "src#0")
	cons := Span{Machine: src.Machine}
	for _, s := range clean.Trace {
		if strings.HasPrefix(s.Node, "worker") && s.Machine != src.Machine {
			cons = s
			break
		}
	}
	if cons.Machine == src.Machine {
		t.Fatalf("no worker off the src machine; partition test needs a remote edge")
	}
	// Cut consumer → producer from the start until well after the consumer
	// would have mapped, then let it heal.
	lift := cons.Start.Add(600 * simtime.Microsecond)
	plan := faults.Plan{Seed: chaosSeed, Partitions: []faults.Partition{
		{From: memsim.MachineID(cons.Machine), To: memsim.MachineID(src.Machine), After: 0, Until: lift},
	}}

	res := runChaosWith(t, chaosFanWorkflow(1000), plan, opts)
	if res.Err != nil {
		t.Fatalf("partition run failed: %v", res.Err)
	}
	if res.Output != pipelineSum {
		t.Fatalf("healed output = %v, want %v", res.Output, pipelineSum)
	}
	if res.PartitionWaits == 0 {
		t.Fatalf("no partition waits despite a partition window over the consume")
	}
	if res.Failovers != 0 {
		t.Fatalf("partition (not crash) triggered %d failovers", res.Failovers)
	}
	if res.Reexecs != 0 {
		t.Fatalf("partition consumed %d re-executions; the wait rung should carry it", res.Reexecs)
	}
	if res.LeaseExpiries == 0 {
		t.Fatalf("blocked heartbeats never aged out a lease")
	}
	if res.Latency <= clean.Latency {
		t.Fatalf("partitioned latency %v not above clean %v (waits must cost virtual time)",
			res.Latency, clean.Latency)
	}

	// Determinism: partition windows are schedules, not draws.
	again := runChaosWith(t, chaosFanWorkflow(1000), plan, opts)
	if again.Latency != res.Latency || again.PartitionWaits != res.PartitionWaits ||
		again.LeaseExpiries != res.LeaseExpiries || again.Output != res.Output {
		t.Fatalf("partition run not deterministic:\n first: lat=%v waits=%d exp=%d out=%v\nsecond: lat=%v waits=%d exp=%d out=%v",
			res.Latency, res.PartitionWaits, res.LeaseExpiries, res.Output,
			again.Latency, again.PartitionWaits, again.LeaseExpiries, again.Output)
	}

	// A partition that never lifts exhausts the wait budget (bounded — no
	// infinite parking) and hands the failure to the later rungs, which
	// either repair it (re-execution / degradation) or fail the request.
	forever := faults.Plan{Seed: chaosSeed, Partitions: []faults.Partition{
		{From: memsim.MachineID(cons.Machine), To: memsim.MachineID(src.Machine), After: 0, Until: 0},
	}}
	fopts := opts
	fopts.Recovery = &RecoveryPolicy{Retry: faults.DefaultRetryPolicy(), MaxPartitionWaits: 3}
	stuck := runChaosWith(t, chaosFanWorkflow(1000), forever, fopts)
	if stuck.PartitionWaits != 3 {
		t.Fatalf("partition waits = %d, want exactly the budget of 3", stuck.PartitionWaits)
	}
	if stuck.Err == nil && stuck.Reexecs == 0 {
		t.Fatalf("permanent partition succeeded without any later-rung repair")
	}
}

// TestChaosReexecutionBudget: when the budget is too small for the failure
// pattern, the request fails cleanly instead of looping forever.
func TestChaosReexecutionBudget(t *testing.T) {
	plan := faults.Plan{Seed: chaosSeed, Rules: []faults.Rule{
		{Site: faults.SiteRPC, Target: faults.AnyMachine, Endpoint: "rmmap.auth", Prob: 1.0},
	}}
	rec := &RecoveryPolicy{
		Retry:           faults.DefaultRetryPolicy(),
		MaxReexecutions: 1,
		DegradeAfter:    10, // never reached: budget exhausts first
	}
	res := runChaosFan(t, plan, rec)
	if res.Err == nil {
		t.Fatalf("request completed despite exhausted re-execution budget")
	}
	if res.Reexecs != 1 {
		t.Fatalf("reexecs = %d, want budget of 1", res.Reexecs)
	}
}
