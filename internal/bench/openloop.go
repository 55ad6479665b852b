package bench

import (
	"fmt"
	"reflect"
	"time"

	"rmmap/internal/platform"
	"rmmap/internal/simtime"
	"rmmap/internal/workloads"
)

// The open-loop worker scaling section of BENCH_fig14.json: the same
// fixed-rate ML-prediction load (the fig12 open-loop configuration) run at
// several worker counts. Virtual-time results must be identical at every
// count — the parallel engine's determinism contract — while wall-clock
// time drops with workers on a multi-core host. Wall-clock fields are the
// one machine-dependent part of the report; everything else is seeded.

// OpenLoopWorkersRow is one worker-count measurement.
type OpenLoopWorkersRow struct {
	Workers int `json:"workers"`
	// WallMs is host wall-clock time for the run — machine-dependent.
	WallMs float64 `json:"wall_clock_ms"`
	// Speedup is the sequential row's wall-clock divided by this row's.
	Speedup float64 `json:"speedup_vs_sequential"`
	// VirtualMatch reports whether every virtual-time result (completions,
	// latencies, pod samples, throughput timeline) is identical to the
	// sequential reference. Anything but true is a determinism bug.
	VirtualMatch bool    `json:"virtual_time_match"`
	Completed    int     `json:"completed"`
	Errors       int     `json:"errors"`
	ThroughputRS float64 `json:"throughput_req_s"`
	P50Ns        int64   `json:"latency_p50_ns"`
	P99Ns        int64   `json:"latency_p99_ns"`
}

// OpenLoopReport is the worker-scaling section of Fig14Report.
type OpenLoopReport struct {
	Workflow   string               `json:"workflow"`
	Mode       string               `json:"mode"`
	RateRS     float64              `json:"rate_req_s"`
	DurationNs int64                `json:"duration_ns"`
	Rows       []OpenLoopWorkersRow `json:"rows"`
}

// openLoopConfig returns the load-generation parameters of the worker
// scaling benchmark at the given payload scale.
func openLoopConfig(scale float64) (cfg workloads.MLPredictConfig, rate float64, dur simtime.Duration) {
	cfg = workloads.DefaultMLPredict()
	cfg.Images = scaleInt(300, scale)
	cfg.Trees = 16
	rate, dur = 200, 1*simtime.Second
	if scale < 0.1 {
		rate, dur = 100, 300*simtime.Millisecond
	}
	return cfg, rate, dur
}

// runOpenLoopCell runs the open-loop benchmark once and reports the load
// result plus the host wall-clock time it took.
func runOpenLoopCell(scale float64, workers int) (platform.LoadResult, time.Duration, error) {
	cfg, rate, dur := openLoopConfig(scale)
	start := time.Now()
	e, err := platform.NewEngine(workloads.MLPredict(cfg), platform.ModeRMMAPPrefetch,
		platform.Options{Workers: workers}, benchCluster())
	if err != nil {
		return platform.LoadResult{}, 0, err
	}
	res := e.RunOpenLoop(rate, dur)
	return res, time.Since(start), nil
}

// CollectOpenLoop measures the open-loop bench at each worker count. The
// first count is the reference for both VirtualMatch and Speedup; pass 1
// first so the report reads as "parallel vs sequential".
func CollectOpenLoop(scale float64, workerCounts []int) (OpenLoopReport, error) {
	_, rate, dur := openLoopConfig(scale)
	rep := OpenLoopReport{
		Workflow:   "ML-prediction",
		Mode:       platform.ModeRMMAPPrefetch.String(),
		RateRS:     rate,
		DurationNs: int64(dur),
	}
	var ref platform.LoadResult
	var refWall time.Duration
	for i, w := range workerCounts {
		res, wall, err := runOpenLoopCell(scale, w)
		if err != nil {
			return rep, fmt.Errorf("openloop workers=%d: %w", w, err)
		}
		if i == 0 {
			ref, refWall = res, wall
		}
		rep.Rows = append(rep.Rows, OpenLoopWorkersRow{
			Workers:      w,
			WallMs:       float64(wall.Microseconds()) / 1e3,
			Speedup:      float64(refWall) / float64(wall),
			VirtualMatch: reflect.DeepEqual(res, ref),
			Completed:    res.Completed,
			Errors:       res.Errors,
			ThroughputRS: res.Throughput(),
			P50Ns:        int64(res.Percentile(0.5)),
			P99Ns:        int64(res.Percentile(0.99)),
		})
	}
	return rep, nil
}
