package load

import (
	"fmt"
	"math"

	"rmmap/internal/simtime"
)

// Event is one scheduled submission: at virtual-time instant At, tenant
// Tenant submits one workflow request with relative deadline Deadline
// (0 = none, or the admission config's default).
type Event struct {
	At       simtime.Time
	Tenant   string
	Deadline simtime.Duration
}

// rng is a splitmix64 stream. The generators deliberately avoid math/rand:
// its algorithms are not pinned across Go versions, and the arrival
// schedule must be a pure function of (spec, seed) forever.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	x := r.s
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// float64 returns a uniform draw in [0, 1).
func (r *rng) float64() float64 { return float64(r.next()>>11) / (1 << 53) }

// exp returns an exponential draw with the given mean.
func (r *rng) exp(mean float64) float64 {
	u := r.float64()
	return -math.Log(1-u) * mean
}

// TenantName formats tenant index i the way the generators do ("t0000",
// "t0001", ...), so tests and reports can reference generated tenants.
func TenantName(i int) string { return fmt.Sprintf("t%04d", i) }

// Periodic synthesizes a fixed-rate schedule: one arrival every 1s/rate
// from instant 0 while i·gap fits in horizon, tenant "" and no deadline.
// Replayed, each arrival is exactly an Engine.Submit. Like Poisson and
// Bursty, it returns no events for a rate that is not finite and positive
// or whose gap is under 1 ns (simtime.PerSecond returns 0): such a
// schedule would never advance.
func Periodic(rate float64, horizon simtime.Duration) []Event {
	gap := simtime.PerSecond(rate)
	if gap == 0 || horizon <= 0 {
		return nil
	}
	events := make([]Event, int(float64(horizon)/float64(gap)))
	for i := range events {
		events[i].At = simtime.Time(simtime.Duration(i) * gap)
	}
	return events
}

// PoissonSpec parameterizes an open-loop Poisson arrival schedule.
type PoissonSpec struct {
	// Rate is the mean arrival rate in requests per virtual second.
	Rate float64
	// Horizon bounds the schedule: no arrival at or past it.
	Horizon simtime.Duration
	// Tenants is the number of virtual tenants; each arrival draws its
	// tenant uniformly. 0 or 1 = the single tenant "t0000".
	Tenants int
	// Deadline is each request's relative deadline (0 = none).
	Deadline simtime.Duration
	// Seed pins the schedule.
	Seed uint64
}

// Poisson synthesizes an open-loop Poisson schedule: exponential
// inter-arrival gaps at Rate, tenants drawn per arrival. Open-loop means
// the schedule never waits for completions — overload arrives at full
// force, which is the point.
func Poisson(spec PoissonSpec) []Event {
	if simtime.PerSecond(spec.Rate) == 0 || spec.Horizon <= 0 {
		return nil
	}
	r := &rng{s: spec.Seed}
	mean := float64(simtime.PerSecond(spec.Rate))
	var events []Event
	t := r.exp(mean)
	for simtime.Duration(t) < spec.Horizon {
		events = append(events, Event{
			At:       simtime.Time(t),
			Tenant:   drawTenant(r, spec.Tenants),
			Deadline: spec.Deadline,
		})
		t += r.exp(mean)
	}
	return events
}

// BurstSpec parameterizes a bursty open-loop schedule: Poisson at BaseRate
// with periodic windows at BurstRate.
type BurstSpec struct {
	// BaseRate is the steady arrival rate (requests per virtual second).
	BaseRate float64
	// BurstRate is the arrival rate inside burst windows.
	BurstRate float64
	// BurstEvery is the burst period: a window opens at every multiple.
	BurstEvery simtime.Duration
	// BurstLen is each window's length (must be < BurstEvery).
	BurstLen simtime.Duration
	// Horizon bounds the schedule.
	Horizon simtime.Duration
	// Tenants, Deadline, Seed behave as in PoissonSpec.
	Tenants  int
	Deadline simtime.Duration
	Seed     uint64
}

// Bursty synthesizes the bursty schedule: the instantaneous rate is
// BurstRate while (t mod BurstEvery) < BurstLen and BaseRate otherwise,
// with exponential gaps drawn at the rate in force at the previous
// arrival. That approximation (no mid-gap rate switch) keeps the
// generator one draw per event and is plenty for an overload workload.
func Bursty(spec BurstSpec) []Event {
	if spec.BurstRate < spec.BaseRate {
		spec.BurstRate = spec.BaseRate
	}
	if simtime.PerSecond(spec.BaseRate) == 0 || simtime.PerSecond(spec.BurstRate) == 0 || spec.Horizon <= 0 {
		return nil
	}
	r := &rng{s: spec.Seed}
	inBurst := func(t float64) bool {
		if spec.BurstEvery <= 0 || spec.BurstLen <= 0 {
			return false
		}
		return simtime.Duration(int64(t))%spec.BurstEvery < spec.BurstLen
	}
	rateAt := func(t float64) float64 {
		if inBurst(t) {
			return spec.BurstRate
		}
		return spec.BaseRate
	}
	var events []Event
	t := r.exp(float64(simtime.PerSecond(rateAt(0))))
	for simtime.Duration(t) < spec.Horizon {
		events = append(events, Event{
			At:       simtime.Time(t),
			Tenant:   drawTenant(r, spec.Tenants),
			Deadline: spec.Deadline,
		})
		t += r.exp(float64(simtime.PerSecond(rateAt(t))))
	}
	return events
}

func drawTenant(r *rng, tenants int) string {
	if tenants <= 1 {
		return TenantName(0)
	}
	return TenantName(int(r.next() % uint64(tenants)))
}
