package load

import (
	"sort"

	"rmmap/internal/admit"
	"rmmap/internal/platform"
	"rmmap/internal/simtime"
)

// TenantStats is one tenant's slice of a replay.
type TenantStats struct {
	Offered   int
	Completed int
	Failed    int
	Shed      int
	// Latencies holds the tenant's completed-request latencies in
	// completion order (not sorted — isolation tests byte-compare them).
	Latencies []simtime.Duration
}

// Result summarises one load run: a replayed schedule or a closed loop.
type Result struct {
	Offered   int
	Completed int // finished successfully
	Failed    int // finished with a non-shed error
	Shed      int // rejected or abandoned by the overload layer
	// DeadlineSheds counts the sheds that were deadline expiries
	// (queue-side or mid-run).
	DeadlineSheds int
	// Recovery sums the ladder's work over every finished request: replica
	// failovers, producer re-executions, partition-wait retries and
	// rmap→messaging degradations (RunResult's counters of the same names).
	Failovers      int
	Reexecs        int
	PartitionWaits int
	Fallbacks      int
	// Horizon is the offered window (last arrival bound) the goodput rate
	// is computed over; Drained is the virtual instant the run ended — the
	// cluster went idle, or a closed loop reached its horizon.
	Horizon simtime.Duration
	Drained simtime.Duration
	// Latencies are completed-request latencies, sorted ascending.
	Latencies []simtime.Duration
	// BusyPods samples Engine.BusyPods every 100 ms of virtual time, from
	// instant 0 through Horizon (Fig 12's utilization).
	BusyPods []int
	// ByTenant splits the counters per tenant.
	ByTenant map[string]*TenantStats
	// Admission snapshots the engine's admission counters at drain time.
	Admission admit.Stats
	// ColdStarts snapshots the engine's pod cold starts at drain time.
	ColdStarts int
}

// sampleEvery is the BusyPods sampling period.
const sampleEvery = 100 * simtime.Millisecond

// OfferedRPS is the offered arrival rate over the horizon.
func (r Result) OfferedRPS() float64 {
	if r.Horizon <= 0 {
		return 0
	}
	return float64(r.Offered) / r.Horizon.Seconds()
}

// GoodputRPS is successful completions per second of offered window.
func (r Result) GoodputRPS() float64 {
	if r.Horizon <= 0 {
		return 0
	}
	return float64(r.Completed) / r.Horizon.Seconds()
}

// ShedRate is the shed fraction of offered load.
func (r Result) ShedRate() float64 {
	if r.Offered == 0 {
		return 0
	}
	return float64(r.Shed) / float64(r.Offered)
}

// ColdStartRate is cold starts per offered request.
func (r Result) ColdStartRate() float64 {
	if r.Offered == 0 {
		return 0
	}
	return float64(r.ColdStarts) / float64(r.Offered)
}

// Percentile returns the p-quantile completed latency (p in [0,1]).
func (r Result) Percentile(p float64) simtime.Duration {
	if len(r.Latencies) == 0 {
		return 0
	}
	i := int(p * float64(len(r.Latencies)-1))
	return r.Latencies[i]
}

// Throughput is completions per second over the drained window: the
// later of Horizon and Drained, so a backlog that drains past the offered
// window counts against the rate.
func (r Result) Throughput() float64 {
	w := max(r.Horizon, r.Drained)
	if w <= 0 {
		return 0
	}
	return float64(r.Completed) / w.Seconds()
}

// AvgBusyPods averages the BusyPods samples.
func (r Result) AvgBusyPods() float64 {
	if len(r.BusyPods) == 0 {
		return 0
	}
	sum := 0
	for _, b := range r.BusyPods {
		sum += b
	}
	return float64(sum) / float64(len(r.BusyPods))
}

// Replay schedules every event on the engine's simulator clock, submits
// through SubmitTenant, runs the simulation to drain, and tallies the
// outcomes. horizon is the offered window the rates are computed over
// (pass the generator's Horizon; 0 uses the last arrival instant).
func Replay(e *platform.Engine, events []Event, horizon simtime.Duration) Result {
	res := Result{
		Offered:  len(events),
		Horizon:  horizon,
		ByTenant: make(map[string]*TenantStats),
	}
	if horizon <= 0 && len(events) > 0 {
		res.Horizon = simtime.Duration(events[len(events)-1].At) + 1
	}
	s := e.Cluster.Sim
	for _, ev := range events {
		ts := res.tenant(ev.Tenant)
		ts.Offered++
		s.At(ev.At, func() {
			e.SubmitTenant(platform.SubmitInfo{Tenant: ev.Tenant, Deadline: ev.Deadline},
				func(r platform.RunResult) { res.record(ts, r) })
		})
	}
	res.run(e)
	return res
}

// ClosedLoop keeps clients requests in flight until the virtual horizon,
// measuring saturated throughput (the Fig 12 upper row). It sets the
// simulator's Horizon, so the run stops there with the tail in flight:
// Horizon and Drained both become the instant it stopped.
func ClosedLoop(e *platform.Engine, clients int, horizon simtime.Duration) Result {
	res := Result{Horizon: horizon, ByTenant: make(map[string]*TenantStats)}
	ts := res.tenant("")
	s := e.Cluster.Sim
	s.Horizon = simtime.Time(horizon)
	var submit func()
	submit = func() {
		res.Offered++
		ts.Offered++
		e.Submit(func(r platform.RunResult) {
			res.record(ts, r)
			if simtime.Duration(s.Now()) < horizon {
				submit()
			}
		})
	}
	for i := 0; i < clients; i++ {
		s.At(0, submit)
	}
	res.run(e)
	res.Drained = min(res.Drained, horizon)
	res.Horizon = res.Drained
	return res
}

func (res *Result) tenant(name string) *TenantStats {
	ts := res.ByTenant[name]
	if ts == nil {
		ts = &TenantStats{}
		res.ByTenant[name] = ts
	}
	return ts
}

// record tallies one finished submission.
func (res *Result) record(ts *TenantStats, r platform.RunResult) {
	res.Failovers += r.Failovers
	res.Reexecs += r.Reexecs
	res.PartitionWaits += r.PartitionWaits
	res.Fallbacks += r.Fallbacks
	switch {
	case r.Shed:
		res.Shed++
		ts.Shed++
		if r.DeadlineExceeded {
			res.DeadlineSheds++
		}
	case r.Err != nil:
		res.Failed++
		ts.Failed++
	default:
		res.Completed++
		ts.Completed++
		res.Latencies = append(res.Latencies, r.Latency)
		ts.Latencies = append(ts.Latencies, r.Latency)
	}
}

// run schedules the BusyPods samplers after the submissions already on
// the clock, so samples resolve after arrivals at the same instant, then
// runs the simulation and snapshots the engine.
func (res *Result) run(e *platform.Engine) {
	s := e.Cluster.Sim
	for i := simtime.Duration(0); i <= res.Horizon/sampleEvery; i++ {
		s.At(simtime.Time(i*sampleEvery), func() { res.BusyPods = append(res.BusyPods, e.BusyPods()) })
	}
	res.Drained = simtime.Duration(s.Run())
	sort.Slice(res.Latencies, func(i, j int) bool { return res.Latencies[i] < res.Latencies[j] })
	res.Admission = e.AdmissionStats()
	res.ColdStarts = e.ColdStarts()
}
