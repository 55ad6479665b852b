package main

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"rmmap/internal/admit"
	"rmmap/internal/bench"
	"rmmap/internal/faults"
	"rmmap/internal/load"
	"rmmap/internal/platform"
	"rmmap/internal/simtime"
)

func runLoad(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("load", stderr)
	cf := newClusterFlags(fs,
		use{"workflow", "wordcount", ""},
		use{"small", false, ""},
		use{"machines", 4, "cluster size"},
		use{"pods", 16, "warm pods"},
		use{"workers", 0, "engine worker-pool size (0 = all cores); the report is identical at any setting"},
		use{"mode", "rmmap", "transfer mode: messaging, pocket, rdma, rmmap, prefetch"},
		use{"topology", "", ""},
		use{"plan", "", "JSON fault plan to run the load under"},
		use{"replicas", 0, "backup machines per registration"},
	)

	rate := fs.Float64("rate", 200, "steady offered load, requests per virtual second")
	burstRate := fs.Float64("burst-rate", 0, "offered load inside burst windows (0: no bursts)")
	burstEvery := fs.Duration("burst-every", 500*time.Millisecond, "burst period")
	burstLen := fs.Duration("burst-len", 100*time.Millisecond, "burst window length")
	horizon := fs.Duration("horizon", 2*time.Second, "virtual-time arrival horizon")
	tenants := fs.Int("tenants", 1000, "virtual tenants submitting requests")
	deadline := fs.Duration("deadline", 0, "per-request relative deadline (0: none)")
	seed := fs.Uint64("seed", 1, "arrival-schedule seed; same seed, same schedule")
	coldStart := fs.Bool("cold-start", false, "charge container cold starts")

	queueLimit := fs.Int("queue-limit", admit.DefaultQueueLimit, "admission queue bound")
	maxInflight := fs.Int("max-inflight", admit.DefaultMaxInflight, "max concurrently running requests")
	queuePolicy := fs.String("queue-policy", "fifo", "admission dequeue order: fifo or deadline")
	regWatermark := fs.Int("reg-watermark", 0, "live-registration backpressure watermark (0: off)")
	quotaRate := fs.Float64("quota-rate", 0, "per-tenant token refill rate, requests per virtual second (0: unlimited)")
	quotaBurst := fs.Float64("quota-burst", 0, "per-tenant token-bucket capacity")
	breakerThreshold := fs.Int("breaker-threshold", admit.DefaultBreakerThreshold, "consecutive bad outcomes that trip a tenant's breaker")
	breakerCooldown := fs.Duration("breaker-cooldown", 0, "open-breaker cooldown before half-opening (0: default)")

	curve := fs.String("curve", "", "comma-separated offered-load multipliers for the goodput-vs-offered curve (e.g. 0.5,1,2,4)")
	saveTrace := fs.String("save-trace", "", "write the generated arrival schedule as JSONL and exit")
	tracePath := fs.String("trace", "", "replay a JSONL arrival trace instead of generating one")
	jsonPath := fs.String("json", "", "write the scale report to this file (e.g. BENCH_scale.json)")
	if err := fs.Parse(args); err != nil {
		return parseExit(err)
	}
	err := checkRate("rate", *rate)
	if err == nil && *burstRate != 0 {
		err = checkRate("burst-rate", *burstRate)
	}
	var multipliers []float64
	if err == nil {
		multipliers, err = parseCurve(*curve, *rate, *burstRate)
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	gen := load.BurstSpec{
		BaseRate:   *rate,
		BurstRate:  *burstRate,
		BurstEvery: simtime.Duration(burstEvery.Nanoseconds()),
		BurstLen:   simtime.Duration(burstLen.Nanoseconds()),
		Horizon:    simtime.Duration(horizon.Nanoseconds()),
		Tenants:    *tenants,
		Deadline:   simtime.Duration(deadline.Nanoseconds()),
		Seed:       *seed,
	}
	if *saveTrace != "" {
		events := load.Bursty(gen)
		if err := load.SaveTrace(*saveTrace, events); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %d arrivals to %s\n", len(events), *saveTrace)
		return 0
	}

	var events []load.Event
	var plan faults.Plan
	if *tracePath != "" {
		if events, err = load.LoadTrace(*tracePath); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	if cf.plan != "" {
		if plan, err = faults.LoadPlan(cf.plan); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}

	policy, err := admit.ParsePolicy(*queuePolicy)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	m, err := platform.ParseMode(cf.mode)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	shape, err := cf.builder()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	spec := load.SoakSpec{
		Workflow: cf.workflow,
		Small:    cf.small,
		Mode:     m,
		Machines: cf.machines,
		Pods:     cf.pods,
		Workers:  cf.workers,
		Topology: cf.topology,
		Gen:      gen,
		Events:   events,
		Plan:     plan,
		Admission: admit.Config{
			QueueLimit:       *queueLimit,
			MaxInflight:      *maxInflight,
			Policy:           policy,
			RegWatermark:     *regWatermark,
			Quota:            admit.Quota{Rate: *quotaRate, Burst: *quotaBurst},
			BreakerThreshold: *breakerThreshold,
			BreakerCooldown:  simtime.Duration(breakerCooldown.Nanoseconds()),
		},
		Replicas:         cf.replicas,
		ColdStart:        *coldStart,
		CurveMultipliers: multipliers,
	}
	soak, err := load.RunSoak(spec)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	res := soak.Result
	fmt.Fprintf(stdout, "%s (%s): %d tenants, %d arrivals over %gs\n",
		spec.Workflow, spec.Mode, spec.Gen.Tenants, res.Offered, res.Horizon.Seconds())
	fmt.Fprintf(stdout, "offered %.1f req/s, sustained %.1f req/s, shed %.1f%% (p50 %.3fms p99 %.3fms, cold-start rate %.3f)\n",
		res.OfferedRPS(), res.GoodputRPS(), 100*res.ShedRate(),
		res.Percentile(0.50).Millis(), res.Percentile(0.99).Millis(), res.ColdStartRate())
	a := res.Admission
	fmt.Fprintf(stdout, "sheds: queue-full=%d quota=%d breaker=%d backpressure=%d deadline=%d; breaker trips=%d\n",
		a.ShedQueueFull, a.ShedQuota, a.ShedBreaker, a.ShedBackpressure, a.ShedDeadline, a.BreakerTrips)
	fmt.Fprintf(stdout, "injected faults: %d\n", soak.Injected)
	for i, p := range soak.Curve {
		fmt.Fprintf(stdout, "  x%g: offered %.1f req/s -> goodput %.1f req/s (shed %.1f%%, p99 %.3fms)\n",
			multipliers[i], p.OfferedRPS(), p.GoodputRPS(), 100*p.ShedRate(), p.Percentile(0.99).Millis())
	}
	if *jsonPath != "" {
		rep := bench.Report{Topology: shape.Name(), Experiments: []bench.ReportRun{{ID: "soak", Tables: bench.SoakTables(soak)}}}
		if err := writeFile(*jsonPath, rep.WriteJSON); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %s\n", *jsonPath)
	}
	return 0
}

// parseCurve parses -curve: comma-separated multipliers, each finite and
// positive and keeping every nonzero base rate a usable one.
func parseCurve(s string, rates ...float64) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		ok := err == nil && v > 0
		for _, r := range rates {
			ok = ok && (r == 0 || simtime.PerSecond(v*r) != 0)
		}
		if !ok {
			return nil, fmt.Errorf("bad -curve multiplier %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}
