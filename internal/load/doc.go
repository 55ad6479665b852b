// Package load is the one load driver: it generates and replays
// open-loop, multi-tenant request traffic against the platform engine and
// runs closed loops — the workload side of Fig 12 and of the overload
// experiments (DESIGN.md §11, EXPERIMENTS.md scale soak).
//
// Arrival schedules are materialized up front as []Event (virtual-time
// instants with tenant IDs and relative deadlines), either synthesized by
// the deterministic Periodic/Poisson/Bursty generators or read from a
// replayable JSONL trace. Replay submits every event through
// Engine.SubmitTenant on the simulator clock, and ClosedLoop keeps a fixed
// number of requests in flight; both return a Result that is identical at
// any Options.Workers. internal/bench renders RunSoak's Results as the
// BENCH_scale.json tables.
//
// The generators use their own splitmix64 stream (not math/rand), so a
// (spec, seed) pair pins the exact arrival schedule across Go versions.
package load
