package main

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"rmmap/internal/admit"
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
	var err error
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
	multipliers, err := parseCurve(*curve)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	if cf.topology != "" {
		if _, err := cf.builder(); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
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
	rep, err := load.RunSoak(spec)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	fmt.Fprintf(stdout, "%s (%s): %d tenants, %d arrivals over %gs\n",
		rep.Workflow, rep.Mode, rep.Tenants, rep.Offered, rep.HorizonS)
	fmt.Fprintln(stdout, rep.Summary())
	fmt.Fprintf(stdout, "sheds: queue-full=%d quota=%d breaker=%d backpressure=%d deadline=%d; breaker trips=%d\n",
		rep.ShedQueueFull, rep.ShedQuota, rep.ShedBreaker, rep.ShedBackpressure,
		rep.ShedDeadline, rep.BreakerTrips)
	fmt.Fprintf(stdout, "injected faults: %d\n", rep.InjectedFaults)
	for _, p := range rep.Curve {
		fmt.Fprintf(stdout, "  x%g: offered %.1f req/s -> goodput %.1f req/s (shed %.1f%%, p99 %.3fms)\n",
			p.Multiplier, p.OfferedRPS, p.GoodputRPS, 100*p.ShedRate, p.P99Ms)
	}
	if *jsonPath != "" {
		if err := rep.WriteFile(*jsonPath); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %s\n", *jsonPath)
	}
	return 0
}

func parseCurve(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad -curve multiplier %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}
