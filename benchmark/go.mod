// The perf ledger is a module of its own so that it builds from its own
// build file and stays out of the root module's `go build ./...` and
// `go test ./...`. Its path sits under rmmap/, which is what lets it import
// rmmap/internal/...; the replace points at the checkout it lives in.
module rmmap/benchmark

go 1.23

require rmmap v0.0.0

replace rmmap => ../
