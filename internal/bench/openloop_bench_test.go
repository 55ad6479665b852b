package bench

import (
	"fmt"
	"os"
	"testing"
)

// benchScale keeps the open-loop hot-path benchmarks tractable while still
// producing wide dispatch frontiers (16 predictors per request across the
// 10-machine bench cluster).
const benchScale = 0.25

// BenchmarkOpenLoopFig14 times the open-loop fig14 bench (fixed-rate
// ML-prediction under rmmap(prefetch)) at several worker-pool sizes. One
// iteration is a full load run; compare ns/op across sub-benchmarks to see
// worker scaling on this host:
//
//	go test ./internal/bench -bench OpenLoopFig14 -run '^$'
func BenchmarkOpenLoopFig14(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, _, err := runOpenLoopCell(benchScale, workers)
				if err != nil {
					b.Fatal(err)
				}
				if res.Errors > 0 {
					b.Fatalf("%d failed requests", res.Errors)
				}
			}
		})
	}
}

// TestOpenLoopSpeedupGuard is the check behind the CI "open-loop worker
// equivalence" step: with RMMAP_SPEEDUP_GUARD=1, it runs the full-scale
// open-loop fig14 bench sequentially and with 8 workers and requires the
// virtual-time results to match exactly and the parallel run to be
// healthy. The wall-clock speedup is logged, not asserted: host wall time
// is judged by the perf ledger (benchmark/), with repetitions and a spread.
//
//	RMMAP_SPEEDUP_GUARD=1 go test ./internal/bench -run OpenLoopSpeedupGuard -v
func TestOpenLoopSpeedupGuard(t *testing.T) {
	if os.Getenv("RMMAP_SPEEDUP_GUARD") == "" {
		t.Skip("set RMMAP_SPEEDUP_GUARD=1 to run the full-scale open-loop worker equivalence check")
	}
	rep, err := CollectOpenLoop(1.0, []int{1, 8})
	if err != nil {
		t.Fatal(err)
	}
	seq, par := rep.Rows[0], rep.Rows[1]
	t.Logf("sequential: %.0f ms, 8 workers: %.0f ms (%.2fx), completed=%d p50=%dns",
		seq.WallMs, par.WallMs, par.Speedup, par.Completed, par.P50Ns)
	if !par.VirtualMatch {
		t.Fatalf("virtual-time results diverged between workers=1 and workers=8")
	}
	if par.Completed == 0 || par.Errors > 0 {
		t.Fatalf("parallel run unhealthy: completed=%d errors=%d", par.Completed, par.Errors)
	}
}
