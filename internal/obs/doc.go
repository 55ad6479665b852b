// Package obs is the reproduction's unified observability layer: a
// deterministic metrics registry, exportable trace spans, and virtual-time
// profiles shared by the engine, the kernel, and the bench harness.
//
// The paper's evaluation lives on µs-scale cost attribution (fig14/fig15
// break every workflow down into connect/read/fault/serialize costs), so
// every virtual-time charge in the stack must be inspectable. obs gives the
// charges three stable output shapes:
//
//   - Registry: counters and fixed-bucket histograms keyed by canonical
//     metric name plus sorted labels (workflow, mode, function, category,
//     recovery rung). Registries are populated from the counters the charge
//     sites already maintain — simtime Meters, kernel CacheStats, the
//     engine's recovery tallies — with zero behavior change to the charged
//     code. Snapshot output is byte-stable: series sort by (name, labels)
//     and JSON maps marshal with sorted keys.
//
//   - Span export: the engine's per-invocation trace tree serialises to
//     Chrome trace-event JSON (loadable in chrome://tracing or Perfetto;
//     machines become processes, pods become threads) and to a flat JSONL
//     form for ad-hoc tooling. Both emitters format numbers with integer
//     arithmetic only, so reruns of a seeded workload produce byte-identical
//     artifacts — the property the golden-file tests in internal/bench pin.
//
//   - Profiles: a flamegraph-style folded aggregation (span path ×
//     simtime category → total ns) plus latency histograms with exponential
//     buckets and quantile estimation (rmmap trace -openloop folds an
//     open-loop load.Result's latencies into one).
//
// Invariants: obs never advances virtual time and never mutates the
// subsystems it observes; everything it reports is derived from state the
// run already produced. All iteration orders are explicitly sorted, never
// map order. The canonical metric names in names.go are the single
// vocabulary for counters.
package obs
