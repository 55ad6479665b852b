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
// Sharded scales the metadata path (DESIGN.md §15): N complete
// coordinators behind a consistent-hash Ring (64 vnodes per shard,
// generation-counted membership). Each shard owns its journal, snapshot
// trigger, epoch, and deferred-op backlog, so reclamation fencing and
// crash recovery are shard-local; Route* methods return generation-
// fenced Tickets that go ErrStaleRoute across membership changes or the
// target shard's crash. A single-shard plane saves the exact legacy
// durable image; multi-shard saves frame per-shard blobs in the
// RMCSHRD1 container, each journal stamped with its shard position.
// Each shard journals only the records its keys route to, and per-shard
// journals stay below the snapshot trigger, eliminating the single
// coordinator's repeated O(live-registrations) compaction re-encodes
// (the abl-ctrl experiment prices both on each shard's storage meter).
//
// The package is a leaf: it imports only simtime, speaks uint64
// ids/keys and int machine indices, and is sim-thread-only (no internal
// locking) — the platform engine adapts kernel types and invokes it
// exclusively from commit closures and timers, which is what keeps runs
// byte-identical at any worker count.
package ctrl
