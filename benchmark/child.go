package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"rmmap/internal/obs"
)

// childReport is what one child process prints on its standard output: one
// cold repetition of a workload, or the layerwalk.
type childReport struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`

	// Host clock.
	SetupS float64 `json:"setup_s"`
	WallS  float64 `json:"wall_s"`
	CPUS   float64 `json:"cpu_s"`
	// Host holds group (d) as far as the child can see it: the runtime's
	// MemStats deltas over the timed region.
	Host map[string]float64 `json:"host,omitempty"`
	// CPUShare holds group (c); traced repetitions only.
	CPUShare map[string]float64 `json:"cpu_share,omitempty"`

	// Virtual clock: pure functions of the seed.
	OpsAttempted     int                `json:"ops_attempted"`
	OpsFailed        int                `json:"ops_failed"`
	ExpectedFailures int                `json:"ops_failed_expected"`
	Virtual          map[string]float64 `json:"virtual,omitempty"`
	Counts           map[string]float64 `json:"counts,omitempty"`
	Outputs          []string           `json:"outputs,omitempty"`

	// Layer holds group (a); the layerwalk child only.
	Layer map[string]summary `json:"layer,omitempty"`

	// Problems lists every check that failed; empty means correct.
	Problems []string `json:"problems,omitempty"`
}

// childArgs is what the parent passes on the child's command line.
type childArgs struct {
	workload  string
	seed      uint64
	quick     bool
	trace     bool
	workers   int
	out       string
	spawnedAt int64 // the parent's clock just before exec, Unix ns
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// runChild is the whole life of a child process. It does no warm-up:
// someone running a batch simulator from the command line pays heap growth
// every time, so a repetition does too.
func runChild(a childArgs, stdout io.Writer) error {
	born := time.Now()
	if a.spawnedAt > 0 {
		born = time.Unix(0, a.spawnedAt)
	}
	rep := childReport{Workload: a.workload, Seed: a.seed}
	c := &runCtx{seed: a.seed, sizes: fullSizes, workers: a.workers}
	if a.quick {
		c.sizes = quickSizes
	}
	if a.trace {
		c.tr = newTracer()
		c.reg = obs.NewRegistry()
		if err := os.MkdirAll(a.out, 0o755); err != nil {
			return err
		}
	}

	var err error
	if a.workload == layerwalkName {
		z := lwFull
		if a.quick {
			z = lwQuick
		}
		err = runLayerwalk(c, z, &rep)
	} else {
		err = runRepetition(c, a, born, &rep)
	}
	if err != nil {
		return err
	}
	if c.tr != nil {
		if err := c.tr.write(filepath.Join(a.out, "trace_"+a.workload+".json"), a.workload, a.seed); err != nil {
			return err
		}
	}
	return json.NewEncoder(stdout).Encode(rep)
}

func runRepetition(c *runCtx, a childArgs, born time.Time, rep *childReport) error {
	def, ok := findWorkload(a.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", a.workload)
	}
	var j *job
	if err := c.tr.do("setup", func() (err error) {
		j, err = def.build(c)
		return err
	}); err != nil {
		return fmt.Errorf("%s: set-up: %w", a.workload, err)
	}

	var profile bytes.Buffer
	if c.tr != nil {
		if err := pprof.StartCPUProfile(&profile); err != nil {
			return err
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuSeconds()
	t0 := time.Now()
	rep.SetupS = t0.Sub(born).Seconds()

	err := c.tr.do("timed", j.timed)

	rep.WallS = time.Since(t0).Seconds()
	rep.CPUS = cpuSeconds() - cpu0
	runtime.ReadMemStats(&m1)
	if c.tr != nil {
		pprof.StopCPUProfile()
	}
	if err != nil {
		return fmt.Errorf("%s: %w", a.workload, err)
	}
	rep.Host = map[string]float64{
		"host.alloc_mb":    float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20),
		"host.mallocs_m":   float64(m1.Mallocs-m0.Mallocs) / 1e6,
		"host.gc_cycles":   float64(m1.NumGC - m0.NumGC),
		"host.gc_pause_ms": float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6,
	}

	t := newTally()
	_ = c.tr.do("harvest", func() error { j.finish(t); return nil })
	if c.reg != nil {
		t.checkObs(c.reg)
	}
	rep.OpsAttempted, rep.OpsFailed, rep.ExpectedFailures = t.attempted, t.failed, t.expectedFailures
	rep.Virtual, rep.Counts, rep.Outputs = t.virtual(), t.counts(), t.outputs
	rep.Problems = t.problems

	if c.tr != nil {
		if err := os.WriteFile(filepath.Join(a.out, "cpu_"+a.workload+".pprof"), profile.Bytes(), 0o644); err != nil {
			return err
		}
		if rep.CPUShare, err = cpuShares(profile.Bytes()); err != nil {
			return err
		}
	}
	return nil
}
