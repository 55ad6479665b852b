// Package bench regenerates every table and figure of the paper's
// evaluation (§5) plus the motivation figures (§2.3) and the design
// ablations. Each experiment returns the rows/series the paper reports as
// a Result of typed tables; Result.Print renders them as text and
// Report.WriteJSON encodes the same values, so one run feeds both.
// EXPERIMENTS.md records the expected shapes and the measured outcomes.
// rmmap bench (cmd/rmmap) is a thin wrapper around this package.
//
// Invariants:
//
//   - Experiments are deterministic and never read the host clock: a
//     fixed scale yields byte-identical tables, JSON reports and
//     observability artifacts at any worker count (the golden tests in
//     this package run the fig14 WordCount cell twice and diff the bytes).
//     Host cost is measured by the perf ledger (benchmark/).
//   - Every fig14 cell's per-simtime-category breakdown is positive in
//     each category it charges and sums to at least the critical-path
//     latency (parallelism can only raise total work); the determinism
//     suite checks this on every cell it runs.
//   - Scaling down (the -scale flag) shrinks inputs, never skips pipeline
//     stages, so CI smoke runs cover the same code paths as full runs.
package bench
