// Package sim is a small deterministic discrete-event simulator. The
// serverless platform uses it to model concurrent pods, open-loop clients,
// lease scanners and failure-detector rounds in virtual time.
//
// Events are closures ordered by (time, sequence number); the sequence
// number makes simultaneous events fire in scheduling order, so runs are
// bit-for-bit reproducible.
//
// Invariants:
//
//   - Virtual time never goes backwards: scheduling an event in the past
//     is a programming error and panics.
//   - Determinism depends on never iterating Go maps into event order;
//     everything that feeds the scheduler sorts first. The golden-file
//     tests in internal/bench pin this property end to end.
//   - The simulator knows nothing about the domain — platform, faults and
//     bench only interact with it through Schedule/Run.
package sim
