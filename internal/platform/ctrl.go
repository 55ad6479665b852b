package platform

import (
	"rmmap/internal/ctrl"
	"rmmap/internal/kernel"
	"rmmap/internal/memsim"
)

// Engine ↔ control-plane wiring (DESIGN.md §13).
//
// The control plane is one journaled coordinator: every address-plan
// slot, pod placement, registration, ACL extension, and reclamation is
// journaled on it in simulated durable storage (CatStorage). The engine
// talks to it only from the simulator thread — commit closures,
// completion events, and timers — so the journal byte stream is a pure
// function of the canonical event order and stays identical at any
// worker count.
//
// While the coordinator is down or a machine is partitioned from it,
// operations do not fail: they defer into a strict-FIFO backlog and
// drain at recovery (before reconciliation, so deferred registrations
// are journaled rather than adopted as drift) and at subsequent
// completion events. The data plane never waits on the coordinator —
// kernels stay authoritative for auth, paging, and ACLs; only
// reclamation and the directory lag until recovery.

// ctrlOp is one deferred control-plane operation. Machine is the
// requester whose partition status gates replay; fn performs the
// operation against the recovered coordinator.
type ctrlOp struct {
	machine memsim.MachineID
	fn      func()
}

// ctrlRef converts a kernel registration identity to the coordinator's.
func ctrlRef(id kernel.FuncID, key kernel.Key) ctrl.RegRef {
	return ctrl.RegRef{ID: uint64(id), Key: uint64(key)}
}

// Coordinator exposes the engine's control plane (tests, CLIs).
func (e *Engine) Coordinator() *ctrl.Coordinator { return e.coord }

// GossipRounds reports completed failure-detector gossip rounds.
func (e *Engine) GossipRounds() int { return e.gossipRounds }

// coordPartitioned reports whether machine's control-plane path is inside
// an injected coordinator-partition window.
func (e *Engine) coordPartitioned(machine memsim.MachineID) bool {
	in := e.Cluster.Injector
	return in != nil && in.CoordPartitioned(machine)
}

// ctrlDo performs one control-plane operation on behalf of machine, or
// defers it into the backlog. Deferral triggers: the coordinator is down,
// the machine is partitioned from it, an injected SiteCoordinator fault
// ate the call, or the backlog is non-empty (strict FIFO — an op may
// never overtake an earlier deferred one, or the journal would reorder
// against the canonical event sequence).
func (e *Engine) ctrlDo(machine memsim.MachineID, endpoint string, fn func()) {
	deferred := e.coord.Down() || len(e.ctrlBacklog) > 0 || e.coordPartitioned(machine)
	if !deferred && e.Cluster.Injector != nil &&
		e.Cluster.Injector.CheckCoordinator(machine, endpoint) != nil {
		deferred = true // the control-plane RPC was injected away; redeliver later
	}
	if deferred {
		e.ctrlBacklog = append(e.ctrlBacklog, ctrlOp{machine: machine, fn: fn})
		e.coord.NoteDeferred()
		return
	}
	fn()
}

// drainCtrlBacklog replays deferred operations in FIFO order, stopping at
// the first op whose machine is still partitioned (strict ordering) or if
// the coordinator is down. Called at recovery, at partition-window ends,
// and from every completion event.
func (e *Engine) drainCtrlBacklog() {
	for len(e.ctrlBacklog) > 0 && !e.coord.Down() {
		op := e.ctrlBacklog[0]
		if e.coordPartitioned(op.machine) {
			return
		}
		e.ctrlBacklog = e.ctrlBacklog[1:]
		op.fn()
	}
}

// seedCoordinator journals the build-time control-plane state: epoch 1,
// the address plan's issued slots in plan order, and every pod placement.
func (e *Engine) seedCoordinator() error {
	if err := e.coord.Start(); err != nil {
		return err
	}
	for _, id := range e.Plan.Slots() {
		l, _ := e.Plan.Slot(id)
		if err := e.coord.IssueSlot(id.Function, id.Instance, l.Range.Start, l.Range.End); err != nil {
			return err
		}
	}
	for _, p := range e.pods {
		if err := e.coord.Place(p.ID, int(p.Machine.ID())); err != nil {
			return err
		}
	}
	return nil
}

// armCoordinatorFaults schedules the chaos plan's coordinator crash and
// recovery on the simulator, plus a backlog drain at each coordinator
// partition window's end. Arming happens at engine build but the events
// fire inside Run — a crash at t=0 therefore can never observe a
// half-initialized engine (see TestChaosCrashAtTimeZero).
func (e *Engine) armCoordinatorFaults() {
	in := e.Cluster.Injector
	if in == nil {
		return
	}
	s := e.Cluster.Sim
	for _, cc := range in.CoordCrashes() {
		s.At(cc.At, e.coord.Crash)
		if cc.RecoverAt > cc.At {
			s.At(cc.RecoverAt, e.recoverCoordinator)
		}
	}
	for _, cp := range in.CoordPartitions() {
		if cp.Until <= 0 {
			continue // open-ended window: nothing to drain at
		}
		s.At(cp.Until, func() {
			e.drainCtrlBacklog()
			e.pumpAdmission()
		})
	}
}

// recoverCoordinator brings a crashed coordinator back in the §13 order:
//
//  1. Recover — load the snapshot, replay the journal tail, adopt a
//     bumped epoch and journal the adoption.
//  2. Drain the backlog — operations the data plane issued while the
//     coordinator was down are journaled now, in their original order,
//     so step 3 sees them as directory state rather than drift.
//  3. Reconcile against live kernels — kernels are authoritative. The
//     listing omits crashed machines, whose entries drain via the normal
//     release path.
//  4. Broadcast the new epoch so every kernel fences commands from the
//     pre-crash incarnation (skipped under disableEpochFence — the
//     negative control where a zombie coordinator can still reclaim).
//  5. Resume admission.
func (e *Engine) recoverCoordinator() {
	if e.coord.Down() {
		if _, err := e.coord.Recover(); err != nil {
			// Durable storage is simulated and the codec round-trips by
			// construction; an error here is a bug, not a chaos outcome.
			panic("platform: coordinator recovery failed: " + err.Error())
		}
		e.drainCtrlBacklog()
		e.coord.Reconcile(e.kernelListings())
		if !e.disableEpochFence {
			epoch := e.coord.Epoch()
			for i, k := range e.Cluster.Kernels {
				if !e.Cluster.Machines[i].Crashed() {
					k.AdoptEpoch(epoch)
				}
			}
		}
	}
	e.pumpAdmission()
	e.dispatch()
}

// kernelListings snapshots every live kernel's registration listing for
// reconciliation. Crashed machines are omitted — the coordinator must not
// drop their directory entries, since their refs drain through the normal
// release path as in-flight consumers finish.
func (e *Engine) kernelListings() []ctrl.MachineRegs {
	var out []ctrl.MachineRegs
	for i, k := range e.Cluster.Kernels {
		if e.Cluster.Machines[i].Crashed() {
			continue
		}
		regs := k.ListRegistrations()
		refs := make([]ctrl.RegRef, 0, len(regs))
		for _, r := range regs {
			refs = append(refs, ctrlRef(r.ID, r.Key))
		}
		out = append(out, ctrl.MachineRegs{Machine: i, Refs: refs})
	}
	return out
}
