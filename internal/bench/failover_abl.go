package bench

import (
	"fmt"
	"io"

	"rmmap/internal/faults"
	"rmmap/internal/memsim"
	"rmmap/internal/platform"
	"rmmap/internal/simtime"
)

// ablFailoverSeed keeps the failover ablation's fault schedules
// reproducible independent of the experiment ordering.
const ablFailoverSeed = 20260805

// FailoverRow is one (workflow, recovery arm) cell of the failover
// ablation: how long the run took, which ladder rungs carried it, and the
// fabric/replication bytes behind the recovery.
type FailoverRow struct {
	Workflow        string `json:"workflow"`
	Arm             string `json:"arm"`
	LatencyNs       int64  `json:"latency_ns"`
	CleanLatencyNs  int64  `json:"clean_latency_ns"`
	Failovers       int    `json:"failovers"`
	Reexecs         int    `json:"reexecs"`
	Fallbacks       int    `json:"fallbacks"`
	FabricBytesRead int64  `json:"fabric_bytes_read"`
	ReplicatedBytes int64  `json:"replicated_bytes"`
	Error           string `json:"error,omitempty"`
}

// runFailoverArm executes one recovery arm on a fresh chaos cluster.
func runFailoverArm(build func() *platform.Workflow, plan faults.Plan, opts platform.Options) (platform.RunResult, int64, error) {
	cfg := benchCluster()
	retry := faults.DefaultRetryPolicy()
	if opts.Recovery != nil {
		retry = opts.Recovery.Retry
	}
	cl := platform.NewChaosCluster(cfg.Machines, simtime.DefaultCostModel(), plan, retry)
	e, err := platform.NewEngineOn(cl, build(), platform.ModeRMMAPPrefetch, opts, cfg.Pods)
	if err != nil {
		return platform.RunResult{}, 0, err
	}
	res, err := e.Run()
	_, _, _, bytesRead := cl.Fabric.Stats()
	return res, bytesRead, err
}

// CollectFailover runs the failover ablation for every Fig 14 workflow:
// the same producer-machine crash recovered by replica failover vs. by
// producer re-execution, plus a persistent-fault arm that degrades the
// poisoned edges to messaging. Per-workflow failures are recorded in the
// row, not fatal — small -scale runs can starve individual arms.
func CollectFailover(scale float64) []FailoverRow {
	var rows []FailoverRow
	for _, wfb := range wfBuilders(scale) {
		rows = append(rows, collectFailoverWorkflow(wfb.Name, wfb.Build)...)
	}
	return rows
}

func collectFailoverWorkflow(name string, build func() *platform.Workflow) []FailoverRow {
	fail := func(arm string, err error) []FailoverRow {
		return []FailoverRow{{Workflow: name, Arm: arm, Error: err.Error()}}
	}
	// Clean reference run (replication on, no faults) pins down the
	// machine hosting the workflow's first producer and when it finishes.
	rec := platform.DefaultRecoveryPolicy()
	rec.MaxReexecutions = 64
	cleanOpts := platform.Options{Trace: true, Recovery: rec, Replicas: 1}
	clean, _, err := runFailoverArm(build, faults.Plan{Seed: ablFailoverSeed}, cleanOpts)
	if err != nil {
		return fail("clean", err)
	}
	// The earliest-finishing span is a first-wave producer; crash its
	// machine late in its span, when replication has had the whole span to
	// complete but its consumers have not yet mapped.
	var prod *platform.Span
	for i := range clean.Trace {
		if s := &clean.Trace[i]; prod == nil || s.End < prod.End {
			prod = s
		}
	}
	if prod == nil {
		return fail("clean", fmt.Errorf("no spans traced"))
	}
	crashAt := prod.Start.Add(prod.Duration() * 9 / 10)
	crash := faults.Plan{
		Seed:    ablFailoverSeed,
		Crashes: []faults.Crash{{Machine: memsim.MachineID(prod.Machine), At: crashAt}},
	}

	arms := []struct {
		name string
		plan faults.Plan
		opts platform.Options
	}{
		{"failover", crash, platform.Options{Recovery: rec, Replicas: 1}},
		{"reexec", crash, platform.Options{Recovery: rec}},
		{"degrade", faults.Plan{
			Seed: ablFailoverSeed,
			Rules: []faults.Rule{{
				Site: faults.SiteRPC, Endpoint: "rmmap.auth",
				Target: memsim.MachineID(prod.Machine), Prob: 1.0, After: crashAt,
			}},
		}, platform.Options{
			Recovery: &platform.RecoveryPolicy{
				Retry:           faults.DefaultRetryPolicy(),
				MaxReexecutions: 64,
				DegradeAfter:    1,
			},
		}},
	}
	rows := make([]FailoverRow, 0, len(arms))
	for _, arm := range arms {
		res, bytesRead, err := runFailoverArm(build, arm.plan, arm.opts)
		row := FailoverRow{
			Workflow:        name,
			Arm:             arm.name,
			LatencyNs:       int64(res.Latency),
			CleanLatencyNs:  int64(clean.Latency),
			Failovers:       res.Failovers,
			Reexecs:         res.Reexecs,
			Fallbacks:       res.Fallbacks,
			FabricBytesRead: bytesRead,
			ReplicatedBytes: res.ReplicatedBytes,
		}
		if err != nil {
			row.Error = err.Error()
		}
		rows = append(rows, row)
	}
	return rows
}

// runAblFailover renders the failover ablation as a table.
func runAblFailover(w io.Writer, scale float64) error {
	t := newTable(w, "workflow", "arm", "latency", "clean", "failovers", "reexecs", "fallbacks", "fabric-bytes", "replicated", "error")
	for _, r := range CollectFailover(scale) {
		t.row(r.Workflow, r.Arm, simtime.Duration(r.LatencyNs), simtime.Duration(r.CleanLatencyNs),
			r.Failovers, r.Reexecs, r.Fallbacks, r.FabricBytesRead, r.ReplicatedBytes, r.Error)
	}
	t.flush()
	return nil
}

func init() {
	register(Experiment{
		ID:    "abl-failover",
		Title: "Ablation: crash recovery by replica failover vs. re-execution vs. degradation (§6, DESIGN §9)",
		Expect: "failover completes without re-executions at near-clean latency; " +
			"re-execution recovers the same crash but pays the producer's span again; " +
			"persistent rmap faults degrade edges to messaging (fallbacks > 0)",
		Run: runAblFailover,
	})
}
