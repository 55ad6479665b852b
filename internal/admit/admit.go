package admit

import (
	"errors"
	"fmt"
	"slices"

	"rmmap/internal/simtime"
)

// Config tunes the admission layer. The zero value of each field picks the
// package default, so the zero Config is a working configuration.
type Config struct {
	// QueueLimit bounds the admission queue; arrivals beyond it shed with
	// ReasonQueueFull. 0 = DefaultQueueLimit.
	QueueLimit int
	// MaxInflight caps concurrently running requests; arrivals beyond it
	// queue. 0 = DefaultMaxInflight.
	MaxInflight int
}

// Admission defaults.
const (
	DefaultQueueLimit  = 256
	DefaultMaxInflight = 64
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

// ErrOverloaded is the typed overload error: the admission queue was full,
// so the request was refused rather than slow down admitted ones. Callers
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
	case ReasonDeadline:
		return "deadline"
	case ReasonControlPlane:
		return "control-plane"
	default:
		return "none"
	}
}

// ShedError is the error a shed request's RunResult carries. It unwraps to
// ErrDeadlineExceeded for deadline sheds, ErrControlPlaneDown for
// control-plane sheds and ErrOverloaded for queue-full sheds, so callers
// can errors.Is-match without knowing the reason split.
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

// Outcome classifies a finished (started, not queue-shed) request.
type Outcome int

const (
	// OutcomeOK: finished, successfully or with a non-overload error.
	OutcomeOK Outcome = iota
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

// Request is one admission candidate. Tenant is a label the caller carries
// into its results; the Controller never reads it. Payload carries
// whatever the caller needs to start or shed the request later; the
// Controller treats it as opaque identity.
type Request struct {
	Tenant   string
	Deadline simtime.Time // absolute virtual time; 0 = none
	Payload  any
}

// Stats counts admission outcomes, cumulative over the Controller's life.
type Stats struct {
	Submitted int
	Admitted  int // started, immediately or from the queue
	Queued    int // passed through the queue at some point

	ShedQueueFull int
	ShedDeadline  int // queue-expiry and mid-run deadline sheds
}

// Sheds sums all shed counters.
func (s Stats) Sheds() int { return s.ShedQueueFull + s.ShedDeadline }

// Controller makes admission decisions. It is NOT safe for concurrent use:
// the engine calls it only from the simulator thread, which is exactly
// what keeps admission deterministic under the parallel engine.
type Controller struct {
	cfg   Config
	queue []*Request
	stats Stats
}

// NewController builds a controller for cfg.
func NewController(cfg Config) *Controller { return &Controller{cfg: cfg} }

// InflightLimit is the resolved MaxInflight.
func (c *Controller) InflightLimit() int { return c.cfg.inflightLimit() }

// QueueLen reports currently queued requests.
func (c *Controller) QueueLen() int { return len(c.queue) }

// Stats returns a snapshot of the cumulative counters.
func (c *Controller) Stats() Stats { return c.stats }

// Submit decides one arrival: run if nothing is queued and fewer than
// MaxInflight requests run, queue if the bounded queue has room, shed
// otherwise. A shed decided here is counted here; the caller must not
// Record it.
//
// The unnamed time and live-registration parameters keep the signature
// benchmark/layerwalk.go calls; ROADMAP O deletes them.
func (c *Controller) Submit(_ simtime.Time, r *Request, inflight, _ int) (Action, Reason) {
	c.stats.Submitted++
	if len(c.queue) == 0 && inflight < c.cfg.inflightLimit() {
		c.stats.Admitted++
		return ActionRun, ReasonNone
	}
	if len(c.queue) >= c.cfg.queueLimit() {
		c.stats.ShedQueueFull++
		return ActionShed, ReasonQueueFull
	}
	c.queue = append(c.queue, r)
	c.stats.Queued++
	return ActionQueue, ReasonNone
}

// Next pops the oldest queued request. A popped request whose deadline
// already passed comes back with ReasonDeadline (counted here) so the
// caller sheds instead of starting it; ReasonNone means the pop is an
// admission. ok is false when the queue is empty.
func (c *Controller) Next(now simtime.Time) (r *Request, reason Reason, ok bool) {
	if len(c.queue) == 0 {
		return nil, ReasonNone, false
	}
	r = c.queue[0]
	c.queue = slices.Delete(c.queue, 0, 1)
	if r.Deadline != 0 && now > r.Deadline {
		c.stats.ShedDeadline++
		return r, ReasonDeadline, true
	}
	c.stats.Admitted++
	return r, ReasonNone, true
}

// Drop removes a still-queued request by payload identity (its deadline
// timer fired) and counts it as a deadline shed. It reports false if the
// request already left the queue — started, popped expired by Next, or
// never queued — in which case nothing is counted.
func (c *Controller) Drop(payload any) (*Request, bool) {
	i := slices.IndexFunc(c.queue, func(r *Request) bool { return r.Payload == payload })
	if i < 0 {
		return nil, false
	}
	r := c.queue[i]
	c.queue = slices.Delete(c.queue, i, 1+i)
	c.stats.ShedDeadline++
	return r, true
}

// Record reports a started request's outcome. Call it exactly once per
// request that got ActionRun (or a ReasonNone pop from Next); a mid-run
// deadline miss counts as a deadline shed.
//
// The unnamed time and tenant parameters keep the signature
// benchmark/layerwalk.go calls; ROADMAP O deletes them.
func (c *Controller) Record(_ simtime.Time, _ string, out Outcome) {
	if out == OutcomeDeadline {
		c.stats.ShedDeadline++
	}
}

// TakeTransitions does nothing. It stays only because
// benchmark/layerwalk.go calls it; ROADMAP O deletes it.
func (c *Controller) TakeTransitions() {}
