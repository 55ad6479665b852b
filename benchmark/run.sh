#!/usr/bin/env bash
# Entry point of BENCHMARK.json's command: build the ledger from source and
# run it. Everything the build leaves behind — Go's build cache included —
# goes under .bench_build/ at the root of the checkout, so a run reads and
# writes nothing outside it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/perf-ledger" .)
exec "$build/perf-ledger" "$@"
