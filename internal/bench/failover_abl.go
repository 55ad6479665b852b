package bench

import (
	"fmt"

	"rmmap/internal/faults"
	"rmmap/internal/memsim"
	"rmmap/internal/platform"
	"rmmap/internal/simtime"
)

// ablFailoverSeed keeps the failover ablation's fault schedules
// reproducible independent of the experiment ordering.
const ablFailoverSeed = 20260805

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

// runAblFailover runs the failover ablation for every Fig 14 workflow:
// the same producer-machine crash recovered by replica failover vs. by
// producer re-execution, plus a persistent-fault arm that degrades the
// poisoned edges to messaging. Per-workflow failures land in the error
// column, not fatal — small -scale runs can starve individual arms.
func runAblFailover(scale float64) (Result, error) {
	t := &Table{Header: []string{"workflow", "arm", "latency", "clean", "failovers", "reexecs", "fallbacks", "fabric-bytes", "replicated", "error"}}
	for _, wfb := range Workflows(scale) {
		failoverRows(t, wfb.Name, wfb.Build)
	}
	return Result{t}, nil
}

// failoverRows adds one workflow's arms to t.
func failoverRows(t *Table, name string, build func() *platform.Workflow) {
	fail := func(arm string, err error) {
		t.add(name, arm, simtime.Duration(0), simtime.Duration(0), 0, 0, 0, int64(0), int64(0), err.Error())
	}
	// Clean reference run (replication on, no faults) pins down the
	// machine hosting the workflow's first producer and when it finishes.
	rec := platform.DefaultRecoveryPolicy()
	rec.MaxReexecutions = 64
	cleanOpts := platform.Options{Trace: true, Recovery: rec, Replicas: 1}
	clean, _, err := runFailoverArm(build, faults.Plan{Seed: ablFailoverSeed}, cleanOpts)
	if err != nil {
		fail("clean", err)
		return
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
		fail("clean", fmt.Errorf("no spans traced"))
		return
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
	for _, arm := range arms {
		res, bytesRead, err := runFailoverArm(build, arm.plan, arm.opts)
		errText := ""
		if err != nil {
			errText = err.Error()
		}
		t.add(name, arm.name, res.Latency, clean.Latency, res.Failovers, res.Reexecs, res.Fallbacks,
			bytesRead, res.ReplicatedBytes, errText)
	}
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
