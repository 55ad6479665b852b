package platform

import (
	"errors"
	"strings"
	"testing"

	"rmmap/internal/admit"
	"rmmap/internal/faults"
	"rmmap/internal/kernel"
	"rmmap/internal/memsim"
	"rmmap/internal/simtime"
)

// Coordinator chaos: the control plane crashes and recovers mid-run
// (DESIGN.md §13). The data plane must not notice — in-flight workflows
// complete byte-identical to the fault-free run — while new submissions
// shed with the typed error, recovery replays the journal with zero
// drift, and epoch fencing stops the pre-crash incarnation's commands.

// newCoordChaosEngine builds a chaos engine without running it, so tests
// can arm extra simulator events (mid-outage submissions, synthetic
// stale commands) before the clock starts.
func newCoordChaosEngine(t *testing.T, wf *Workflow, plan faults.Plan, opts Options, machines, pods int) *Engine {
	t.Helper()
	retry := faults.DefaultRetryPolicy()
	if opts.Recovery != nil && opts.Recovery.Retry.MaxAttempts > 0 {
		retry = opts.Recovery.Retry
	}
	cluster := NewChaosCluster(machines, simtime.DefaultCostModel(), plan, retry)
	e, err := NewEngineOn(cluster, wf, ModeRMMAPPrefetch, opts, pods)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func traceString(spans []Span) string {
	var b strings.Builder
	WriteTrace(&b, spans)
	return b.String()
}

// TestChaosCoordinatorCrash is the headline §13 scenario: the coordinator
// crashes mid-workflow and recovers before the run ends. The in-flight
// request completes byte-identical to the fault-free reference (the data
// plane runs autonomously; registrations and reclamations backlog), a
// submission during the outage sheds with ErrControlPlaneDown, recovery
// replays the journal and reconciles with zero drift, and the recovered
// epoch fences commands from the pre-crash incarnation.
func TestChaosCoordinatorCrash(t *testing.T) {
	opts := Options{Trace: true, Recovery: DefaultRecoveryPolicy()}

	// Clean reference: pins the outage window and the fault-free artifacts.
	ce := newCoordChaosEngine(t, pipelineWorkflow(1000), faults.Plan{Seed: chaosSeed}, opts, 3, 6)
	cref, err := ce.Run()
	if err != nil || cref.Output != pipelineSum {
		t.Fatalf("clean run: err=%v output=%v", err, cref.Output)
	}
	if ce.LiveRegistrations() != 0 {
		t.Fatalf("clean run left %d live directory entries", ce.LiveRegistrations())
	}
	if cref.Ctrl.Appends == 0 || cref.Ctrl.EpochBumps != 1 || cref.Ctrl.Crashes != 0 {
		t.Fatalf("clean run control-plane stats look wrong: %+v", cref.Ctrl)
	}
	trans := findSpan(t, cref.Trace, "transform#0")
	sink := findSpan(t, cref.Trace, "sink#0")
	// Crash mid-transform, recover mid-sink: the transform→sink boundary —
	// a release, a registration, and a dispatch — lands inside the outage
	// and must defer, not fail.
	crashAt := trans.Start.Add(trans.Duration() / 2)
	probeAt := trans.Start.Add(trans.Duration() * 3 / 4)
	recoverAt := sink.Start.Add(sink.Duration() / 2)
	plan := faults.Plan{Seed: chaosSeed,
		CoordCrashes: []faults.CoordCrash{{At: crashAt, RecoverAt: recoverAt}}}

	run := func() (RunResult, *RunResult, *Engine) {
		e := newCoordChaosEngine(t, pipelineWorkflow(1000), plan, opts, 3, 6)
		var shed *RunResult
		e.Cluster.Sim.At(probeAt, func() {
			e.SubmitTenant(SubmitInfo{}, func(r RunResult) { rr := r; shed = &rr })
		})
		res, _ := e.Run()
		return res, shed, e
	}

	res, shed, e := run()
	if res.Err != nil {
		t.Fatalf("coordinator-crash run failed: %v", res.Err)
	}
	if res.Output != pipelineSum {
		t.Fatalf("output = %v, want %v (data plane must be unaffected)", res.Output, pipelineSum)
	}
	if res.Latency != cref.Latency {
		t.Fatalf("latency %v != clean %v — the coordinator outage delayed the data plane", res.Latency, cref.Latency)
	}
	if got, want := traceString(res.Trace), traceString(cref.Trace); got != want {
		t.Fatalf("trace not byte-identical to the fault-free run:\n--- clean:\n%s\n--- crash:\n%s", want, got)
	}
	if res.Reexecs != 0 || res.Failovers != 0 {
		t.Fatalf("coordinator crash caused data-plane recovery: reexecs=%d failovers=%d", res.Reexecs, res.Failovers)
	}

	// The outage submission shed immediately with the typed error.
	if shed == nil {
		t.Fatalf("submission during the outage never completed")
	}
	if !shed.Shed || shed.ShedReason != "control-plane" {
		t.Fatalf("outage submission: shed=%v reason=%q, want control-plane shed", shed.Shed, shed.ShedReason)
	}
	if !errors.Is(shed.Err, admit.ErrControlPlaneDown) {
		t.Fatalf("outage submission error = %v, want ErrControlPlaneDown in chain", shed.Err)
	}

	// Recovery replayed the journal, deferred ops drained, zero drift.
	st := res.Ctrl
	if st.Crashes != 1 || st.Recoveries != 1 {
		t.Fatalf("crashes/recoveries = %d/%d, want 1/1", st.Crashes, st.Recoveries)
	}
	if st.Replays == 0 {
		t.Fatalf("recovery replayed no journal records")
	}
	if st.EpochBumps != 2 {
		t.Fatalf("epoch bumps = %d, want 2 (start + recovery)", st.EpochBumps)
	}
	if st.Deferred == 0 {
		t.Fatalf("no operations deferred despite the transform→sink boundary inside the outage")
	}
	if st.DriftDropped != 0 || st.DriftAdopted != 0 {
		t.Fatalf("reconciliation drift = %d dropped / %d adopted, want zero (backlog drains first)",
			st.DriftDropped, st.DriftAdopted)
	}
	if e.LiveRegistrations() != 0 {
		t.Fatalf("%d directory entries leaked past the deferred reclamations", e.LiveRegistrations())
	}

	// Every kernel adopted the recovered epoch, and a command from the
	// pre-crash incarnation is fenced.
	if got := e.Coordinator().Epoch(); got != 2 {
		t.Fatalf("coordinator epoch = %d, want 2", got)
	}
	for i, k := range e.Cluster.Kernels {
		if got := k.CtrlEpoch(); got != 2 {
			t.Fatalf("kernel %d epoch = %d, want 2", i, got)
		}
	}
	if err := e.Cluster.Kernels[0].DeregisterMemFenced(1, kernel.FuncID(424242), kernel.Key(7)); !errors.Is(err, kernel.ErrStaleEpoch) {
		t.Fatalf("stale-epoch reclaim returned %v, want ErrStaleEpoch", err)
	}

	// Determinism: crash, backlog, shed, recovery all replay identically.
	res2, shed2, _ := run()
	if res2.Latency != res.Latency || res2.Output != res.Output || res2.Ctrl != res.Ctrl {
		t.Fatalf("coordinator-crash run not deterministic:\n first: lat=%v out=%v ctrl=%+v\nsecond: lat=%v out=%v ctrl=%+v",
			res.Latency, res.Output, res.Ctrl, res2.Latency, res2.Output, res2.Ctrl)
	}
	if shed2 == nil || shed2.Latency != shed.Latency {
		t.Fatalf("outage shed not deterministic")
	}
	if traceString(res2.Trace) != traceString(res.Trace) {
		t.Fatalf("trace differs across identical coordinator-crash runs")
	}
}

// outageWindow runs the fault-free reference and returns it with the
// window TestChaosCoordinatorCrash uses: open mid-transform, close
// mid-sink, so the transform→sink boundary falls inside it.
func outageWindow(t *testing.T, opts Options) (cref RunResult, transMachine memsim.MachineID, at, until simtime.Time) {
	t.Helper()
	ce := newCoordChaosEngine(t, pipelineWorkflow(1000), faults.Plan{Seed: chaosSeed}, opts, 3, 6)
	cref, err := ce.Run()
	if err != nil || cref.Output != pipelineSum {
		t.Fatalf("clean run: err=%v output=%v", err, cref.Output)
	}
	trans := findSpan(t, cref.Trace, "transform#0")
	sink := findSpan(t, cref.Trace, "sink#0")
	return cref, memsim.MachineID(trans.Machine), trans.Start.Add(trans.Duration() / 2), sink.Start.Add(sink.Duration() / 2)
}

// TestChaosShardCrashWorkerInvariance: the coordinator crash + recovery
// outage replays byte-identical at Workers ∈ {1, 8} — the journal and the
// backlog are committed in canonical order regardless of the worker pool.
func TestChaosShardCrashWorkerInvariance(t *testing.T) {
	base := Options{Trace: true, Recovery: DefaultRecoveryPolicy()}
	_, _, at, until := outageWindow(t, base)
	plan := faults.Plan{Seed: chaosSeed, CoordCrashes: []faults.CoordCrash{{At: at, RecoverAt: until}}}

	run := func(workers int) (RunResult, *Engine) {
		o := base
		o.Workers = workers
		e := newCoordChaosEngine(t, pipelineWorkflow(1000), plan, o, 3, 6)
		res, _ := e.Run()
		return res, e
	}
	w1, _ := run(1)
	w8, e8 := run(8)
	if w1.Err != nil || w1.Output != pipelineSum || w1.Ctrl.Recoveries != 1 {
		t.Fatalf("w1: err=%v output=%v ctrl=%+v", w1.Err, w1.Output, w1.Ctrl)
	}
	if w8.Latency != w1.Latency || w8.Output != w1.Output || w8.Ctrl != w1.Ctrl {
		t.Fatalf("coordinator-crash run differs between workers=1 and workers=8:\n w1: lat=%v ctrl=%+v\n w8: lat=%v ctrl=%+v",
			w1.Latency, w1.Ctrl, w8.Latency, w8.Ctrl)
	}
	if traceString(w8.Trace) != traceString(w1.Trace) {
		t.Fatalf("trace differs between workers=1 and workers=8")
	}
	if e8.LiveRegistrations() != 0 {
		t.Fatalf("workers=8: %d directory entries leaked", e8.LiveRegistrations())
	}
}

// TestChaosShardTargetedCrash: a control-plane outage aimed at one machine
// — the transform's machine partitioned from the coordinator over the same
// window — backlogs that machine's operations alone. The data plane does
// not notice (latency and trace byte-identical to the fault-free run), the
// coordinator never crashes, so no epoch moves past 1 anywhere, and the
// backlog drains at the window's end with no directory entry leaked.
func TestChaosShardTargetedCrash(t *testing.T) {
	opts := Options{Trace: true, Recovery: DefaultRecoveryPolicy()}
	cref, machine, after, until := outageWindow(t, opts)
	plan := faults.Plan{Seed: chaosSeed,
		CoordPartitions: []faults.CoordPartition{{Machine: machine, After: after, Until: until}}}

	run := func() (RunResult, *Engine) {
		e := newCoordChaosEngine(t, pipelineWorkflow(1000), plan, opts, 3, 6)
		res, _ := e.Run()
		return res, e
	}
	res, e := run()
	if res.Err != nil || res.Output != pipelineSum {
		t.Fatalf("partitioned run: err=%v output=%v", res.Err, res.Output)
	}
	if res.Latency != cref.Latency {
		t.Fatalf("latency %v != clean %v — a one-machine partition delayed the data plane", res.Latency, cref.Latency)
	}
	if traceString(res.Trace) != traceString(cref.Trace) {
		t.Fatalf("trace not byte-identical to the fault-free run")
	}
	st := res.Ctrl
	if st.Deferred == 0 {
		t.Fatalf("no operation from partitioned machine %d deferred", machine)
	}
	if st.Crashes != 0 || st.Recoveries != 0 || st.EpochBumps != 1 {
		t.Fatalf("partition touched coordinator liveness: %+v", st)
	}
	if st.Appends != cref.Ctrl.Appends {
		t.Fatalf("journal appends = %d, want the clean run's %d (deferred, not lost)", st.Appends, cref.Ctrl.Appends)
	}
	if got := e.Coordinator().Epoch(); got != 1 {
		t.Fatalf("coordinator epoch = %d, want 1", got)
	}
	for i, k := range e.Cluster.Kernels {
		if got := k.CtrlEpoch(); got > 1 {
			t.Fatalf("kernel %d epoch = %d without a recovery, want <= 1", i, got)
		}
	}
	if e.LiveRegistrations() != 0 {
		t.Fatalf("%d directory entries leaked past the window's drain", e.LiveRegistrations())
	}

	res2, _ := run()
	if res2.Latency != res.Latency || res2.Ctrl != res.Ctrl || traceString(res2.Trace) != traceString(res.Trace) {
		t.Fatalf("partitioned run not deterministic")
	}
}

// TestChaosCoordinatorEpochFencing pins the fencing guarantee with a
// synthetic zombie: after the coordinator recovers (epoch 2), reclamation
// orders carrying the dead incarnation's epoch 1 sweep every live
// registration. Fenced kernels refuse them all and the run completes
// byte-correct; the disableEpochFence negative control lets the sweep
// destroy the producer's live registration and the run fails.
func TestChaosCoordinatorEpochFencing(t *testing.T) {
	// No Recovery: any corruption must surface as a failed run, not be
	// papered over by re-execution.
	opts := Options{Trace: true}
	ce := newCoordChaosEngine(t, pipelineWorkflow(1000), faults.Plan{Seed: chaosSeed}, opts, 3, 6)
	cref, err := ce.Run()
	if err != nil || cref.Output != pipelineSum {
		t.Fatalf("clean run: err=%v output=%v", err, cref.Output)
	}
	prod := findSpan(t, cref.Trace, "produce#0")
	// All inside the producer's span, before the consumer maps its output:
	// crash, recover (epoch 2), then the zombie sweep with epoch 1.
	crashAt := prod.Start.Add(prod.Duration() / 4)
	recoverAt := prod.Start.Add(prod.Duration() / 2)
	staleAt := prod.Start.Add(prod.Duration() * 3 / 4)
	plan := faults.Plan{Seed: chaosSeed,
		CoordCrashes: []faults.CoordCrash{{At: crashAt, RecoverAt: recoverAt}}}

	run := func(unfenced bool) (RunResult, int, int) {
		e := newCoordChaosEngine(t, pipelineWorkflow(1000), plan, opts, 3, 6)
		e.disableEpochFence = unfenced
		fenced, executed := 0, 0
		e.Cluster.Sim.At(staleAt, func() {
			for _, k := range e.Cluster.Kernels {
				for _, rl := range k.ListRegistrations() {
					switch err := k.DeregisterMemFenced(1, rl.ID, rl.Key); {
					case err == nil:
						executed++
					case errors.Is(err, kernel.ErrStaleEpoch):
						fenced++
					default:
						t.Fatalf("stale sweep: unexpected error %v", err)
					}
				}
			}
		})
		res, _ := e.Run()
		return res, fenced, executed
	}

	res, fenced, executed := run(false)
	if fenced == 0 {
		t.Fatalf("stale sweep found no live registration to fence")
	}
	if executed != 0 {
		t.Fatalf("stale sweep executed %d reclaims despite epoch fencing", executed)
	}
	if res.Err != nil || res.Output != pipelineSum {
		t.Fatalf("fenced run: err=%v output=%v, want clean completion", res.Err, res.Output)
	}
	if res.Latency != cref.Latency {
		t.Fatalf("fenced run latency %v != clean %v", res.Latency, cref.Latency)
	}

	// Negative control: fencing disabled, the same sweep destroys the
	// producer's live registration and the consumer's map fails the run.
	nres, _, nexecuted := run(true)
	if nexecuted == 0 {
		t.Fatalf("unfenced sweep executed no reclaims — the control proves nothing")
	}
	if nres.Err == nil {
		t.Fatalf("run completed despite a zombie coordinator reclaiming a live registration (output=%v)", nres.Output)
	}
}

// TestChaosGossipFailoverCoordinatorDown: the coordinator goes down and
// stays down; then the producer's machine crashes. Failure detection must
// keep working without any central scan — heartbeat probes spread death
// certificates peer to peer (SWIM-lite) — so the consumer fails over to a
// replica and the workflow completes, while every control-plane operation
// backlogs. Byte-identical at Workers ∈ {1, 8}.
func TestChaosGossipFailoverCoordinatorDown(t *testing.T) {
	opts := Options{Trace: true, Recovery: DefaultRecoveryPolicy(), Replicas: 1}
	const machines = 8
	ce := newCoordChaosEngine(t, pipelineWorkflow(1000), faults.Plan{Seed: chaosSeed}, opts, machines, 8)
	cref, err := ce.Run()
	if err != nil || cref.Output != pipelineSum {
		t.Fatalf("clean run: err=%v output=%v", err, cref.Output)
	}
	if cref.ReplicatedBytes == 0 {
		t.Fatalf("Replicas=1 but no bytes replicated")
	}
	prod := findSpan(t, cref.Trace, "produce#0")
	coordDownAt := prod.Start.Add(prod.Duration() / 10)
	crashAt := prod.Start.Add(prod.Duration() * 9 / 10) // after replication
	plan := faults.Plan{Seed: chaosSeed,
		Crashes:      []faults.Crash{{Machine: memsim.MachineID(prod.Machine), At: crashAt}},
		CoordCrashes: []faults.CoordCrash{{At: coordDownAt}}, // never recovers
	}

	run := func(workers int) (RunResult, *Engine) {
		o := opts
		o.Workers = workers
		e := newCoordChaosEngine(t, pipelineWorkflow(1000), plan, o, machines, 8)
		res, _ := e.Run()
		return res, e
	}

	res, e := run(1)
	if res.Err != nil {
		t.Fatalf("gossip-failover run failed: %v", res.Err)
	}
	if res.Output != pipelineSum {
		t.Fatalf("output = %v, want %v", res.Output, pipelineSum)
	}
	if res.Failovers < 1 {
		t.Fatalf("no failover despite producer crash with a replica")
	}
	if res.Reexecs != 0 {
		t.Fatalf("failover run re-executed %d times", res.Reexecs)
	}
	if !e.Coordinator().Down() {
		t.Fatalf("coordinator recovered without a RecoverAt")
	}
	if res.Ctrl.Crashes != 1 || res.Ctrl.Recoveries != 0 {
		t.Fatalf("crashes/recoveries = %d/%d, want 1/0", res.Ctrl.Crashes, res.Ctrl.Recoveries)
	}
	if res.Ctrl.Deferred == 0 {
		t.Fatalf("no control-plane operations backlogged during the outage")
	}
	if res.GossipRounds == 0 {
		t.Fatalf("failure detector never ran a gossip round")
	}
	// Death certificates reached every live machine — including ones whose
	// own probe rotation alone would have left them behind the rounds the
	// run had left. That is the gossip guarantee: detection spreads without
	// the (dead) coordinator's help.
	for i, k := range e.Cluster.Kernels {
		if i == prod.Machine {
			continue
		}
		if !k.PeerDead(memsim.MachineID(prod.Machine)) {
			t.Errorf("machine %d holds no death certificate for crashed machine %d", i, prod.Machine)
		}
	}

	// Determinism across worker counts: the whole path — rotation order,
	// cert spread, failover, backlog — is a pure function of virtual time.
	res8, _ := run(8)
	if res8.Latency != res.Latency || res8.Output != res.Output ||
		res8.Failovers != res.Failovers || res8.GossipRounds != res.GossipRounds ||
		res8.Ctrl != res.Ctrl {
		t.Fatalf("gossip-failover differs between workers=1 and workers=8:\n w1: lat=%v fo=%d gr=%d ctrl=%+v\n w8: lat=%v fo=%d gr=%d ctrl=%+v",
			res.Latency, res.Failovers, res.GossipRounds, res.Ctrl,
			res8.Latency, res8.Failovers, res8.GossipRounds, res8.Ctrl)
	}
	if traceString(res8.Trace) != traceString(res.Trace) {
		t.Fatalf("trace differs between workers=1 and workers=8")
	}
}

// TestChaosCrashAtTimeZero: a machine crash AND a coordinator crash both
// scheduled at t=0 cannot race engine initialization — fault arming uses
// simulator events, which fire inside Run, strictly after the journal is
// seeded and pods are placed. The run recovers (re-execution off the dead
// machine, journal replay for the coordinator) and stays byte-identical
// across worker counts.
func TestChaosCrashAtTimeZero(t *testing.T) {
	opts := Options{Trace: true, Recovery: DefaultRecoveryPolicy()}
	ce := newCoordChaosEngine(t, pipelineWorkflow(1000), faults.Plan{Seed: chaosSeed}, opts, 3, 6)
	cref, err := ce.Run()
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	prod := findSpan(t, cref.Trace, "produce#0")
	trans := findSpan(t, cref.Trace, "transform#0")
	plan := faults.Plan{Seed: chaosSeed,
		Crashes:      []faults.Crash{{Machine: memsim.MachineID(prod.Machine), At: 0}},
		CoordCrashes: []faults.CoordCrash{{At: 0, RecoverAt: trans.Start}},
	}

	run := func(workers int) (RunResult, *Engine) {
		o := opts
		o.Workers = workers
		e := newCoordChaosEngine(t, pipelineWorkflow(1000), plan, o, 3, 6)
		res, _ := e.Run()
		return res, e
	}

	res, e := run(1)
	if res.Err != nil {
		t.Fatalf("t=0 crash run failed: %v", res.Err)
	}
	if res.Output != pipelineSum {
		t.Fatalf("output = %v, want %v", res.Output, pipelineSum)
	}
	if res.Reexecs == 0 {
		t.Fatalf("producer's machine died at t=0 yet nothing re-executed")
	}
	if res.Ctrl.Crashes != 1 || res.Ctrl.Recoveries != 1 {
		t.Fatalf("crashes/recoveries = %d/%d, want 1/1", res.Ctrl.Crashes, res.Ctrl.Recoveries)
	}
	if got := e.Coordinator().Epoch(); got != 2 {
		t.Fatalf("coordinator epoch = %d, want 2 after the t=0 crash recovery", got)
	}

	// Deterministic at any worker count and across fresh runs.
	res8, _ := run(8)
	if res8.Latency != res.Latency || res8.Output != res.Output ||
		res8.Reexecs != res.Reexecs || res8.Ctrl != res.Ctrl {
		t.Fatalf("t=0 crash run differs between workers=1 and workers=8:\n w1: lat=%v reexec=%d ctrl=%+v\n w8: lat=%v reexec=%d ctrl=%+v",
			res.Latency, res.Reexecs, res.Ctrl, res8.Latency, res8.Reexecs, res8.Ctrl)
	}
	if traceString(res8.Trace) != traceString(res.Trace) {
		t.Fatalf("trace differs between workers=1 and workers=8")
	}
	again, _ := run(1)
	if again.Latency != res.Latency || again.Ctrl != res.Ctrl || again.Output != res.Output {
		t.Fatalf("t=0 crash run not deterministic across fresh runs")
	}
}
