package platform

import (
	"rmmap/internal/admit"
	"rmmap/internal/obs"
	"rmmap/internal/simtime"
)

// Admission integration: SubmitTenant routes arrivals through the
// admit.Controller (when Options.Admission is set), queued requests start
// as slots free up (pumpAdmission), and sheds complete immediately with a
// synthetic RunResult. Every call happens on the simulator thread, so the
// whole layer is deterministic at any Options.Workers.

// SubmitInfo identifies one multi-tenant submission.
type SubmitInfo struct {
	// Tenant labels the request in its RunResult and ShedError ("" is the
	// anonymous tenant). No admission decision reads it.
	Tenant string
	// Deadline is the request's relative deadline; 0 means none. A request
	// whose deadline passes — in the queue or mid-run — is shed.
	Deadline simtime.Duration
}

// pendingSubmit carries a submission through the admission queue; it is
// also the admit.Request payload used as removal identity by Drop.
type pendingSubmit struct {
	tenant    string
	deadline  simtime.Time
	submitted simtime.Time
	done      func(RunResult)
}

// SubmitTenant enqueues one workflow request through the overload layer.
// Without Options.Admission it behaves exactly like Submit, but still
// applies the tenant label and deadline.
func (e *Engine) SubmitTenant(info SubmitInfo, done func(RunResult)) {
	now := e.Cluster.Sim.Now()
	var deadline simtime.Time
	if info.Deadline > 0 {
		deadline = now.Add(info.Deadline)
	}
	// Control-plane outage: a new submission would need registrations and
	// reclamation journaled by a coordinator that cannot journal anything,
	// so it sheds deterministically with the typed error. In-flight
	// requests are untouched — the data plane runs autonomously.
	if e.coord.Down() {
		ps := &pendingSubmit{tenant: info.Tenant, deadline: deadline, submitted: now, done: done}
		e.finishShed(ps, admit.ReasonControlPlane)
		return
	}
	if e.admitCtrl == nil {
		e.startRequest(info.Tenant, deadline, done)
		return
	}
	ps := &pendingSubmit{tenant: info.Tenant, deadline: deadline, submitted: now, done: done}
	r := &admit.Request{Tenant: info.Tenant, Deadline: deadline, Payload: ps}
	act, reason := e.admitCtrl.Submit(0, r, e.inflight, 0)
	e.publishAdmission()
	switch act {
	case admit.ActionRun:
		e.startAdmitted(ps)
	case admit.ActionQueue:
		if deadline != 0 {
			// The queue-expiry timer: if the request is still queued at its
			// deadline, shed it there instead of letting it rot until a pop.
			e.Cluster.Sim.At(deadline, func() {
				if _, ok := e.admitCtrl.Drop(ps); ok {
					e.publishAdmission()
					e.finishShed(ps, admit.ReasonDeadline)
				}
			})
		}
	case admit.ActionShed:
		e.finishShed(ps, reason)
	}
}

// pumpAdmission starts queued requests while inflight slots are free. The
// completion path calls it after every finished request, so the queue
// drains at the exact virtual-time instants capacity frees up.
func (e *Engine) pumpAdmission() {
	if e.admitCtrl == nil {
		return
	}
	for e.inflight < e.admitCtrl.InflightLimit() {
		r, reason, ok := e.admitCtrl.Next(e.Cluster.Sim.Now())
		if !ok {
			return
		}
		e.publishAdmission()
		ps := r.Payload.(*pendingSubmit)
		if reason == admit.ReasonDeadline {
			e.finishShed(ps, admit.ReasonDeadline)
			continue
		}
		if e.coord.Down() {
			// The coordinator crashed while this request sat queued; it
			// sheds like a fresh arrival would (see SubmitTenant).
			e.finishShed(ps, admit.ReasonControlPlane)
			continue
		}
		e.startAdmitted(ps)
	}
}

// startAdmitted starts one admitted submission and publishes the admission
// counter.
func (e *Engine) startAdmitted(ps *pendingSubmit) {
	if e.opts.Obs != nil {
		e.opts.Obs.Counter(obs.MetricAdmitted,
			obs.Labels{"workflow": e.wf.Name, "mode": e.mode.String()}).Add(1)
	}
	e.startRequest(ps.tenant, ps.deadline, ps.done)
}

// finishShed completes a request the overload layer rejected: a synthetic
// RunResult (Shed set, typed ShedError, empty meter) plus — when tracing —
// a zero-length "admission" span so sheds are visible on timelines.
func (e *Engine) finishShed(ps *pendingSubmit, reason admit.Reason) {
	now := e.Cluster.Sim.Now()
	res := RunResult{
		Tenant:           ps.tenant,
		Shed:             true,
		ShedReason:       reason.String(),
		DeadlineExceeded: reason == admit.ReasonDeadline,
		Latency:          now.Sub(ps.submitted),
		Err:              &admit.ShedError{Tenant: ps.tenant, Reason: reason},
		Meter:            simtime.NewMeter(),
		PerFunction:      make(map[string]*simtime.Meter),
	}
	if e.opts.Trace {
		res.Trace = []Span{{
			Node: "admission", Pod: -1, Machine: -1,
			Start: ps.submitted, End: now,
			Shed: true, Err: res.Err.Error(),
		}}
	}
	if e.opts.Obs != nil {
		// Control-plane sheds bypass the admit.Controller, so its stats
		// never count them; publish the shed counter directly.
		if reason == admit.ReasonControlPlane {
			e.opts.Obs.Counter(obs.MetricAdmissionSheds,
				obs.Labels{"workflow": e.wf.Name, "mode": e.mode.String()}.
					With("reason", reason.String())).Add(1)
		}
		PublishRun(e.opts.Obs, e.wf.Name, e.mode.String(), res)
	}
	if ps.done != nil {
		ps.done(res)
	}
}

// AdmissionStats snapshots the overload layer's cumulative counters (zero
// Stats without Options.Admission).
func (e *Engine) AdmissionStats() admit.Stats {
	if e.admitCtrl == nil {
		return admit.Stats{}
	}
	return e.admitCtrl.Stats()
}

// AdmissionQueueLen reports currently queued submissions.
func (e *Engine) AdmissionQueueLen() int {
	if e.admitCtrl == nil {
		return 0
	}
	return e.admitCtrl.QueueLen()
}

// publishAdmission adds the admission counters accumulated since the last
// call to Options.Obs (deltas, same scheme as collect's published struct).
func (e *Engine) publishAdmission() {
	if e.admitCtrl == nil || e.opts.Obs == nil {
		return
	}
	base := obs.Labels{"workflow": e.wf.Name, "mode": e.mode.String()}
	s := e.admitCtrl.Stats()
	shed := func(reason admit.Reason, cur, prev int) {
		if cur > prev {
			e.opts.Obs.Counter(obs.MetricAdmissionSheds,
				base.With("reason", reason.String())).Add(int64(cur - prev))
		}
	}
	shed(admit.ReasonQueueFull, s.ShedQueueFull, e.pubAdmit.ShedQueueFull)
	shed(admit.ReasonDeadline, s.ShedDeadline, e.pubAdmit.ShedDeadline)
	e.pubAdmit = s
}
