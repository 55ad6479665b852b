package admit

import (
	"errors"
	"fmt"

	"rmmap/internal/simtime"
)

// Policy selects the admission queue's dequeue order.
type Policy int

const (
	// PolicyFIFO dequeues in arrival order.
	PolicyFIFO Policy = iota
	// PolicyDeadline dequeues earliest-deadline-first: the queued request
	// with the nearest deadline runs next, requests without a deadline sort
	// last, and ties break by arrival order so the schedule stays
	// deterministic.
	PolicyDeadline
)

func (p Policy) String() string {
	switch p {
	case PolicyFIFO:
		return "fifo"
	case PolicyDeadline:
		return "deadline"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// ParsePolicy maps the CLI names ("fifo", "deadline") onto policies.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "fifo":
		return PolicyFIFO, nil
	case "deadline":
		return PolicyDeadline, nil
	default:
		return 0, fmt.Errorf("admit: unknown queue policy %q (want fifo or deadline)", s)
	}
}

// Quota is one tenant's token bucket: Rate tokens refill per virtual
// second up to Burst capacity, and each submission takes one token. The
// zero Quota is unlimited (no bucket at all); a positive Rate with zero
// Burst gets a capacity of one; a negative Burst is a zero-capacity bucket
// that denies every submission (fences a tenant off entirely).
type Quota struct {
	Rate  float64
	Burst float64
}

// Config tunes the overload-control layer. The zero value of every field
// picks the package default; the zero Config as a whole is a working
// configuration (bounded FIFO queue, no quotas, breaker on defaults).
type Config struct {
	// QueueLimit bounds the admission queue; arrivals beyond it shed with
	// ReasonQueueFull. 0 = DefaultQueueLimit.
	QueueLimit int
	// Policy selects the dequeue order.
	Policy Policy
	// MaxInflight caps concurrently running requests; arrivals beyond it
	// queue. 0 = DefaultMaxInflight.
	MaxInflight int
	// RegWatermark sheds arrivals (ReasonBackpressure) while the
	// coordinator tracks at least this many live registrations — the
	// metadata-pressure watermark. 0 disables the check.
	RegWatermark int
	// Quota is the default per-tenant token bucket (zero = unlimited).
	Quota Quota
	// TenantQuota overrides the bucket for specific tenants.
	TenantQuota map[string]Quota
	// BreakerThreshold is the consecutive bad outcomes (sheds, deadline
	// misses) that trip a tenant's breaker. 0 = DefaultBreakerThreshold.
	BreakerThreshold int
	// BreakerCooldown is how long a tripped breaker stays open before it
	// half-opens, in virtual time. 0 = DefaultBreakerCooldown.
	BreakerCooldown simtime.Duration
	// DefaultDeadline is applied to submissions that carry none (0 = no
	// implicit deadline).
	DefaultDeadline simtime.Duration
}

// Admission defaults.
const (
	DefaultQueueLimit       = 256
	DefaultMaxInflight      = 64
	DefaultBreakerThreshold = 8
	DefaultBreakerCooldown  = 50 * simtime.Millisecond
)

func (c Config) queueLimit() int {
	if c.QueueLimit > 0 {
		return c.QueueLimit
	}
	return DefaultQueueLimit
}

func (c Config) inflightLimit() int {
	if c.MaxInflight > 0 {
		return c.MaxInflight
	}
	return DefaultMaxInflight
}

func (c Config) threshold() int {
	if c.BreakerThreshold > 0 {
		return c.BreakerThreshold
	}
	return DefaultBreakerThreshold
}

func (c Config) cooldown() simtime.Duration {
	if c.BreakerCooldown > 0 {
		return c.BreakerCooldown
	}
	return DefaultBreakerCooldown
}

// ErrOverloaded is the typed backpressure error: the coordinator refused
// work it could not take on without degrading admitted requests. Callers
// match it with errors.Is.
var ErrOverloaded = errors.New("admit: overloaded")

// ErrDeadlineExceeded marks a request shed because its deadline passed —
// in the admission queue or mid-run at a recovery rung.
var ErrDeadlineExceeded = errors.New("admit: deadline exceeded")

// ErrControlPlaneDown marks a request shed because the coordinator was
// crashed at submission time: admitting it would mean issuing control-plane
// state (registrations, reclamation) nobody could journal. In-flight
// requests keep running on the autonomous data plane; only new submissions
// shed. Callers match it with errors.Is.
var ErrControlPlaneDown = errors.New("admit: control plane down")

// Reason says why a request was shed.
type Reason int

const (
	// ReasonNone means not shed.
	ReasonNone Reason = iota
	// ReasonQueueFull: the bounded admission queue was at its limit.
	ReasonQueueFull
	// ReasonQuota: the tenant's token bucket was empty.
	ReasonQuota
	// ReasonBreaker: the tenant's circuit breaker was open.
	ReasonBreaker
	// ReasonBackpressure: a coordinator watermark (live registrations) was
	// crossed.
	ReasonBackpressure
	// ReasonDeadline: the request's deadline passed before it finished.
	ReasonDeadline
	// ReasonControlPlane: the control plane (coordinator) was down, so the
	// submission could not be recorded durably and was shed instead.
	ReasonControlPlane
)

func (r Reason) String() string {
	switch r {
	case ReasonQueueFull:
		return "queue-full"
	case ReasonQuota:
		return "quota"
	case ReasonBreaker:
		return "breaker"
	case ReasonBackpressure:
		return "backpressure"
	case ReasonDeadline:
		return "deadline"
	case ReasonControlPlane:
		return "control-plane"
	default:
		return "none"
	}
}

// ShedError is the error a shed request's RunResult carries. It unwraps to
// ErrDeadlineExceeded for deadline sheds and ErrOverloaded for everything
// else, so callers can errors.Is-match without knowing the reason split.
type ShedError struct {
	Tenant string
	Reason Reason
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("admit: shed (%s) tenant %q", e.Reason, e.Tenant)
}

func (e *ShedError) Unwrap() error {
	switch e.Reason {
	case ReasonDeadline:
		return ErrDeadlineExceeded
	case ReasonControlPlane:
		return ErrControlPlaneDown
	}
	return ErrOverloaded
}

// Outcome classifies a finished (started, not queue-shed) request for the
// breaker: only overload evidence — deadline misses — counts against a
// tenant; ordinary failures (injected faults, exhausted recovery budgets)
// are not an overload signal.
type Outcome int

const (
	// OutcomeOK: completed successfully.
	OutcomeOK Outcome = iota
	// OutcomeError: failed for a non-overload reason.
	OutcomeError
	// OutcomeDeadline: exceeded its deadline mid-run and was shed.
	OutcomeDeadline
)

// Action is an admission decision.
type Action int

const (
	// ActionRun: start the request now.
	ActionRun Action = iota
	// ActionQueue: the request entered the admission queue.
	ActionQueue
	// ActionShed: reject with the returned Reason.
	ActionShed
)

// Request is one admission candidate. Payload carries whatever the caller
// needs to start or shed it later; the Controller treats it as opaque
// identity.
type Request struct {
	Tenant   string
	Deadline simtime.Time // absolute virtual time; 0 = none
	Payload  any
	seq      uint64
}

// Stats counts admission outcomes and breaker transitions. All counters
// are cumulative over the Controller's life.
type Stats struct {
	Submitted int
	Admitted  int // started, immediately or from the queue
	Queued    int // passed through the queue at some point

	ShedQueueFull    int
	ShedQuota        int
	ShedBreaker      int
	ShedBackpressure int
	ShedDeadline     int // queue-expiry and mid-run deadline sheds

	BreakerTrips     int
	BreakerHalfOpens int
	BreakerCloses    int
}

// Sheds sums all shed counters.
func (s Stats) Sheds() int {
	return s.ShedQueueFull + s.ShedQuota + s.ShedBreaker + s.ShedBackpressure + s.ShedDeadline
}

// tenantState is one tenant's bucket + breaker pair.
type tenantState struct {
	bkt bucket
	brk breaker
}

// Controller makes admission decisions. It is NOT safe for concurrent use:
// the engine calls it only from the simulator thread, which is exactly
// what keeps admission deterministic under the parallel engine.
type Controller struct {
	cfg     Config
	tenants map[string]*tenantState
	queue   []*Request
	seq     uint64
	stats   Stats
	trans   []Transition
}

// NewController builds a controller for cfg.
func NewController(cfg Config) *Controller {
	return &Controller{cfg: cfg, tenants: make(map[string]*tenantState)}
}

// Config returns the controller's configuration.
func (c *Controller) Config() Config { return c.cfg }

// InflightLimit is the resolved MaxInflight.
func (c *Controller) InflightLimit() int { return c.cfg.inflightLimit() }

// QueueLen reports currently queued requests.
func (c *Controller) QueueLen() int { return len(c.queue) }

// Stats returns a snapshot of the cumulative counters.
func (c *Controller) Stats() Stats { return c.stats }

func (c *Controller) tenant(name string) *tenantState {
	t := c.tenants[name]
	if t == nil {
		t = &tenantState{}
		c.tenants[name] = t
	}
	return t
}

func (c *Controller) quota(name string) Quota {
	if q, ok := c.cfg.TenantQuota[name]; ok {
		return q
	}
	return c.cfg.Quota
}

// TenantBreaker reports a tenant's current breaker state.
func (c *Controller) TenantBreaker(name string) BreakerState {
	return c.tenant(name).brk.state
}

// note folds a breaker transition into the stats and the drainable
// transition log.
func (c *Controller) note(tr Transition) {
	switch tr {
	case TransitionOpen:
		c.stats.BreakerTrips++
	case TransitionHalfOpen:
		c.stats.BreakerHalfOpens++
	case TransitionClosed:
		c.stats.BreakerCloses++
	default:
		return
	}
	c.trans = append(c.trans, tr)
}

// TakeTransitions drains breaker transitions noted since the last call;
// the engine publishes them as obs counters.
func (c *Controller) TakeTransitions() []Transition {
	out := c.trans
	c.trans = nil
	return out
}

// Submit decides one arrival. The check order is breaker (cheapest — a
// tripped tenant must not probe the quota), quota, backpressure watermark,
// then capacity: run if nothing is queued and a slot is free, queue if the
// bounded queue has room, shed otherwise. Sheds decided here are counted
// and fed to the tenant's breaker internally — the caller must not Record
// them again.
func (c *Controller) Submit(now simtime.Time, r *Request, inflight, liveRegs int) (Action, Reason) {
	c.stats.Submitted++
	ten := c.tenant(r.Tenant)
	ok, tr := ten.brk.allow(now, c.cfg.cooldown())
	c.note(tr)
	if !ok {
		c.stats.ShedBreaker++
		// Breaker rejections are not probes: they don't feed the breaker,
		// or a tripped tenant could never close it.
		return ActionShed, ReasonBreaker
	}
	if !ten.bkt.take(now, c.quota(r.Tenant)) {
		c.stats.ShedQuota++
		c.note(ten.brk.record(now, false, c.cfg.threshold(), c.cfg.cooldown()))
		return ActionShed, ReasonQuota
	}
	if c.cfg.RegWatermark > 0 && liveRegs >= c.cfg.RegWatermark {
		c.stats.ShedBackpressure++
		c.note(ten.brk.record(now, false, c.cfg.threshold(), c.cfg.cooldown()))
		return ActionShed, ReasonBackpressure
	}
	if len(c.queue) == 0 && inflight < c.cfg.inflightLimit() {
		c.stats.Admitted++
		return ActionRun, ReasonNone
	}
	if len(c.queue) >= c.cfg.queueLimit() {
		c.stats.ShedQueueFull++
		c.note(ten.brk.record(now, false, c.cfg.threshold(), c.cfg.cooldown()))
		return ActionShed, ReasonQueueFull
	}
	c.seq++
	r.seq = c.seq
	c.queue = append(c.queue, r)
	c.stats.Queued++
	return ActionQueue, ReasonNone
}

// deadlineLess orders queued requests for PolicyDeadline: earliest
// deadline first, no-deadline last, arrival order breaking ties.
func deadlineLess(a, b *Request) bool {
	if (a.Deadline == 0) != (b.Deadline == 0) {
		return b.Deadline == 0
	}
	if a.Deadline != b.Deadline {
		return a.Deadline < b.Deadline
	}
	return a.seq < b.seq
}

// Next pops the next queued request under the configured policy. A popped
// request whose deadline already passed comes back with ReasonDeadline
// (pre-counted and breaker-fed here) so the caller sheds instead of
// starting it; ReasonNone means the pop is an admission. ok is false when
// the queue is empty.
func (c *Controller) Next(now simtime.Time) (r *Request, reason Reason, ok bool) {
	if len(c.queue) == 0 {
		return nil, ReasonNone, false
	}
	idx := 0
	if c.cfg.Policy == PolicyDeadline {
		for i := 1; i < len(c.queue); i++ {
			if deadlineLess(c.queue[i], c.queue[idx]) {
				idx = i
			}
		}
	}
	r = c.queue[idx]
	c.queue = append(c.queue[:idx], c.queue[idx+1:]...)
	if r.Deadline != 0 && now > r.Deadline {
		c.stats.ShedDeadline++
		c.note(c.tenant(r.Tenant).brk.record(now, false, c.cfg.threshold(), c.cfg.cooldown()))
		return r, ReasonDeadline, true
	}
	c.stats.Admitted++
	return r, ReasonNone, true
}

// Drop removes a still-queued request by payload identity (its deadline
// timer fired) and sheds it, counting and breaker-feeding the shed. It
// reports false if the request already left the queue — started, popped
// expired by Next, or never queued — in which case nothing is counted.
func (c *Controller) Drop(now simtime.Time, payload any) (*Request, bool) {
	for i, r := range c.queue {
		if r.Payload == payload {
			c.queue = append(c.queue[:i], c.queue[i+1:]...)
			c.stats.ShedDeadline++
			c.note(c.tenant(r.Tenant).brk.record(now, false, c.cfg.threshold(), c.cfg.cooldown()))
			return r, true
		}
	}
	return nil, false
}

// Record feeds a started request's completion outcome to its tenant's
// breaker. Call it exactly once per request that got ActionRun (or a
// ReasonNone pop from Next); queue-side sheds are recorded internally.
func (c *Controller) Record(now simtime.Time, tenant string, out Outcome) {
	if out == OutcomeDeadline {
		c.stats.ShedDeadline++
	}
	good := out != OutcomeDeadline
	c.note(c.tenant(tenant).brk.record(now, good, c.cfg.threshold(), c.cfg.cooldown()))
}

// bucket is a lazily refilled token bucket in virtual time. It starts
// full.
type bucket struct {
	inited bool
	tokens float64
	last   simtime.Time
}

// take refills by elapsed virtual time and consumes one token. An
// unlimited quota (zero Quota) always admits; a negative Burst never does.
func (b *bucket) take(now simtime.Time, q Quota) bool {
	if q.Burst < 0 {
		return false
	}
	if q.Rate <= 0 {
		return true
	}
	burst := q.Burst
	if burst < 1 {
		burst = 1
	}
	if !b.inited {
		b.inited = true
		b.tokens = burst
		b.last = now
	}
	b.tokens += q.Rate * now.Sub(b.last).Seconds()
	b.last = now
	if b.tokens > burst {
		b.tokens = burst
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}
