// Package platform is the Knative-like serverless layer of the
// reproduction: workflow DAGs, the static virtual-memory plan (§4.2), a
// coordinator that invokes functions and reclaims registered memory, pods
// with container caching, and the function framework that wires RMMAP (or
// a baseline transport) into unmodified function handlers.
//
// Invariants:
//
//   - The address plan assigns every function *instance* a disjoint
//     virtual range, computed statically from the DAG (§4.2) — this is the
//     property that lets a consumer rmap several producers at once, which
//     remote fork cannot do (see rfork).
//   - Handlers are mode-oblivious: the same handler code runs under
//     messaging, storage, and rmap; only the Ctx plumbing differs. A
//     workflow's output is asserted equal across all modes.
//   - Failures climb a fixed recovery ladder — retry, degrade to a slower
//     transport, failover to a replica, wait out a partition, re-execute
//     the producer — and every rung increments its own RunResult counter,
//     which PublishRun republishes under canonical obs names.
//   - Options.Obs and Options.Trace are pure observation: enabling them
//     never changes scheduling, costs, or results (golden tests pin this).
package platform
