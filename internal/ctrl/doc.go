// Package ctrl is the explicit control plane: a Coordinator that owns
// address-plan issuance, the registration directory, the reclamation
// driver, and the pod-placement table, previously implicit engine state.
//
// The coordinator is durable and crash-tolerant (DESIGN.md §13). Every
// mutation is first appended to a write-ahead journal in simulated
// storage (charged to simtime.CatStorage on a background meter), with
// byte-count-triggered snapshots compacting the log. Recovery loads the
// snapshot, replays the journal tail, adopts a bumped coordinator epoch
// (journaling the adoption), and then reconciles the rebuilt directory
// against live kernels — kernels are authoritative for registrations, so
// drift is logged and repaired rather than trusted. Kernels fence
// commands from stale epochs, so a zombie pre-crash coordinator can
// never reclaim live memory.
//
// The platform runs exactly one Coordinator (DESIGN.md §13): every
// control-plane operation is journaled on it in the canonical event
// order. Sharded and Ring are not part of that design. They are the perf
// ledger's fixture for ctrl.churn_ns_s1/_s16 (benchmark/layerwalk.go),
// which prices splitting the directory across N journals, and a
// benchmark change that drops ctrl.churn_ns_s16 deletes them.
//
// The package is a leaf: it imports only simtime, speaks uint64
// ids/keys and int machine indices, and is sim-thread-only (no internal
// locking) — the platform engine adapts kernel types and invokes it
// exclusively from commit closures and timers, which is what keeps runs
// byte-identical at any worker count.
package ctrl
