package load

import (
	"reflect"
	"slices"
	"testing"

	"rmmap/internal/admit"
	"rmmap/internal/faults"
	"rmmap/internal/obs"
	"rmmap/internal/platform"
	"rmmap/internal/simtime"
)

// testEngine builds a fresh small-wordcount chaos engine; adm == nil runs
// without admission control.
func testEngine(t *testing.T, adm *admit.Config, workers int) *platform.Engine {
	t.Helper()
	wf, err := Workflow("wordcount", true)
	if err != nil {
		t.Fatal(err)
	}
	rec := platform.DefaultRecoveryPolicy()
	cluster := platform.NewChaosCluster(4, simtime.DefaultCostModel(), faults.Plan{}, rec.Retry)
	e, err := platform.NewEngineOn(cluster, wf, platform.ModeRMMAP,
		platform.Options{Recovery: rec, Admission: adm, Workers: workers}, 16)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestReplayConservation(t *testing.T) {
	events := Poisson(PoissonSpec{Rate: 150, Horizon: 300 * simtime.Millisecond,
		Tenants: 4, Seed: 3})
	e := testEngine(t, nil, 0)
	res := Replay(e, events, 300*simtime.Millisecond)
	if res.Offered != len(events) {
		t.Fatalf("offered %d, scheduled %d", res.Offered, len(events))
	}
	if res.Completed+res.Failed+res.Shed != res.Offered {
		t.Fatalf("conservation: %d+%d+%d != %d",
			res.Completed, res.Failed, res.Shed, res.Offered)
	}
	// No faults and no admission layer: everything completes.
	if res.Failed != 0 || res.Shed != 0 {
		t.Fatalf("failed=%d shed=%d on a fault-free run", res.Failed, res.Shed)
	}
	if len(res.Latencies) != res.Completed {
		t.Fatalf("%d latencies for %d completions", len(res.Latencies), res.Completed)
	}
	var off, comp int
	for _, ts := range res.ByTenant {
		off += ts.Offered
		comp += ts.Completed
	}
	if off != res.Offered || comp != res.Completed {
		t.Fatalf("per-tenant sums %d/%d vs %d/%d", off, comp, res.Offered, res.Completed)
	}
	if res.Drained < simtime.Duration(events[len(events)-1].At) {
		t.Fatalf("drained at %v before the last arrival", res.Drained)
	}
}

// TestGoodputAtTwiceCapacity is the ISSUE acceptance bound: with the
// admission layer on, offered load at 2x the measured capacity must still
// yield goodput >= 80% of that capacity — overload degrades by shedding,
// not by collapsing.
func TestGoodputAtTwiceCapacity(t *testing.T) {
	// Measure capacity closed-loop on a fresh engine (no admission), with
	// concurrency matching the admission layer's inflight limit.
	cap := ClosedLoop(testEngine(t, nil, 0), admit.DefaultMaxInflight, 500*simtime.Millisecond).Throughput()
	if cap <= 0 {
		t.Fatal("measured zero capacity")
	}

	horizon := 500 * simtime.Millisecond
	events := Poisson(PoissonSpec{Rate: 2 * cap, Horizon: horizon, Tenants: 16, Seed: 17})
	e := testEngine(t, &admit.Config{}, 0)
	res := Replay(e, events, horizon)
	if got := res.OfferedRPS(); got < 1.5*cap {
		t.Fatalf("offered %.1f req/s, wanted ~2x capacity %.1f", got, cap)
	}
	if res.Shed == 0 {
		t.Fatal("2x overload shed nothing — admission layer inactive?")
	}
	if goodput := res.GoodputRPS(); goodput < 0.8*cap {
		t.Fatalf("goodput %.1f req/s < 80%% of capacity %.1f (shed %d of %d)",
			goodput, cap, res.Shed, res.Offered)
	}
}

// TestBreakerIsolation pins the ISSUE's isolation bound: a tenant whose
// breaker trips must not affect other tenants' latency. Tenant "bad" is
// fenced off by a deny-all quota (every arrival sheds, tripping its
// breaker); tenant "good" must see byte-identical latencies whether or not
// "bad" is hammering the front door.
func TestBreakerIsolation(t *testing.T) {
	adm := admit.Config{
		TenantQuota:      map[string]admit.Quota{"bad": {Burst: -1}},
		BreakerThreshold: 4,
	}
	horizon := 400 * simtime.Millisecond
	good := Poisson(PoissonSpec{Rate: 300, Horizon: horizon, Seed: 5})
	for i := range good {
		good[i].Tenant = "good"
	}
	bad := Poisson(PoissonSpec{Rate: 500, Horizon: horizon, Seed: 6})
	for i := range bad {
		bad[i].Tenant = "bad"
	}

	mixed := Replay(testEngine(t, &adm, 0), append(append([]Event{}, good...), bad...), horizon)
	alone := Replay(testEngine(t, &adm, 0), good, horizon)

	if mixed.Admission.BreakerTrips < 1 {
		t.Fatalf("bad tenant's breaker never tripped (stats %+v)", mixed.Admission)
	}
	bt := mixed.ByTenant["bad"]
	if bt.Shed != bt.Offered || bt.Completed != 0 {
		t.Fatalf("bad tenant: offered %d shed %d completed %d",
			bt.Offered, bt.Shed, bt.Completed)
	}
	if !reflect.DeepEqual(mixed.ByTenant["good"].Latencies, alone.ByTenant["good"].Latencies) {
		t.Fatalf("good tenant's latencies changed under bad-tenant overload: %d vs %d samples",
			len(mixed.ByTenant["good"].Latencies), len(alone.ByTenant["good"].Latencies))
	}
	if mixed.ByTenant["good"].Completed != alone.ByTenant["good"].Completed {
		t.Fatal("good tenant completion count changed")
	}
}

func TestResultHelpers(t *testing.T) {
	r := Result{
		Completed: 10,
		Horizon:   2 * simtime.Second,
		Latencies: []simtime.Duration{1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
		BusyPods:  []int{2, 4, 6},
	}
	if got := r.Throughput(); got != 5 {
		t.Errorf("throughput = %v", got)
	}
	if r.Percentile(0) != 1 || r.Percentile(1) != 10 || r.Percentile(0.5) != 5 {
		t.Errorf("p0/p50/p100 = %v/%v/%v", r.Percentile(0), r.Percentile(0.5), r.Percentile(1))
	}
	if got := r.AvgBusyPods(); got != 4 {
		t.Errorf("avg busy = %v", got)
	}
	// A backlog draining past the horizon widens the throughput window.
	r.Drained = 4 * simtime.Second
	if got := r.Throughput(); got != 2.5 {
		t.Errorf("drained throughput = %v", got)
	}
	var empty Result
	if empty.Throughput() != 0 || empty.Percentile(0.5) != 0 || empty.AvgBusyPods() != 0 {
		t.Error("empty result helpers not zero")
	}
}

func TestOpenLoopDeterministic(t *testing.T) {
	run := func() Result {
		return Replay(testEngine(t, nil, 0), Periodic(20, 2*simtime.Second), 2*simtime.Second)
	}
	a := run()
	if a.Completed != 40 || a.Failed+a.Shed != 0 {
		t.Fatalf("completed %d, failed %d, shed %d of 40", a.Completed, a.Failed, a.Shed)
	}
	if b := run(); !reflect.DeepEqual(a, b) {
		t.Error("identical open-loop runs differ")
	}
}

func TestOpenLoopThroughputMatchesRate(t *testing.T) {
	horizon := 2 * simtime.Second
	res := Replay(testEngine(t, nil, 0), Periodic(50, horizon), horizon)
	if res.Offered != 100 || res.Failed+res.Shed != 0 {
		t.Fatalf("offered %d, failed %d, shed %d", res.Offered, res.Failed, res.Shed)
	}
	// The cluster easily sustains 50 req/s of small wordcount.
	if res.Completed < 90 {
		t.Errorf("completed %d of 100 offered", res.Completed)
	}
	// One busy-pod sample per 100 ms through the horizon, and a throughput
	// over the drained window.
	if len(res.BusyPods) != 21 || len(res.Latencies) != res.Completed {
		t.Errorf("%d samples, %d latencies for %d completions", len(res.BusyPods), len(res.Latencies), res.Completed)
	}
	if want := float64(res.Completed) / max(res.Drained, horizon).Seconds(); res.Throughput() != want {
		t.Errorf("throughput %v, want %v", res.Throughput(), want)
	}
}

func TestClosedLoopSaturates(t *testing.T) {
	run := func(clients int) float64 {
		return ClosedLoop(testEngine(t, nil, 0), clients, 100*simtime.Millisecond).Throughput()
	}
	if one, many := run(1), run(16); many <= one {
		t.Errorf("throughput did not grow with clients: 1→%.1f 16→%.1f", one, many)
	}
}

// TestClosedLoopConservation: completions equal submissions minus the
// in-flight tail at the horizon, where the run stops.
func TestClosedLoopConservation(t *testing.T) {
	horizon := 100 * simtime.Millisecond
	res := ClosedLoop(testEngine(t, nil, 0), 6, horizon)
	if res.Failed+res.Shed != 0 || res.Completed == 0 {
		t.Fatalf("completed %d, failed %d, shed %d", res.Completed, res.Failed, res.Shed)
	}
	if tail := res.Offered - res.Completed; tail < 0 || tail > 6 {
		t.Errorf("offered %d, completed %d: in-flight tail %d outside [0, 6]", res.Offered, res.Completed, tail)
	}
	if res.Drained != horizon || res.Horizon != horizon {
		t.Errorf("drained %v, horizon %v, want both %v", res.Drained, res.Horizon, horizon)
	}
	if len(res.Latencies) != res.Completed || !slices.IsSorted(res.Latencies) {
		t.Errorf("%d latencies (sorted %v) for %d completions",
			len(res.Latencies), slices.IsSorted(res.Latencies), res.Completed)
	}
}

// TestResultLatencyHistogram: quantiles of the exponential-bucket
// histogram rmmap trace -openloop prints must bracket the exact
// percentile of the sorted sample.
func TestResultLatencyHistogram(t *testing.T) {
	res := Replay(testEngine(t, nil, 0), Periodic(200, 200*simtime.Millisecond), 200*simtime.Millisecond)
	if res.Failed+res.Shed > 0 || res.Completed == 0 {
		t.Fatalf("open loop: %d completed, %d failed, %d shed", res.Completed, res.Failed, res.Shed)
	}
	h := obs.NewHistogram(obs.LatencyBucketsNs())
	for _, l := range res.Latencies {
		h.Observe(float64(l))
	}
	exact, est := res.Percentile(0.5), simtime.Duration(h.Quantile(0.5))
	// Exponential buckets: the estimate must be within one bucket (2x).
	if est < exact/2 || est > exact*2 {
		t.Fatalf("p50 estimate %v too far from exact %v", est, exact)
	}
}
