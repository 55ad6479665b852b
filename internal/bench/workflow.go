package bench

import (
	"fmt"

	"rmmap/internal/load"
	"rmmap/internal/objrt"
	"rmmap/internal/platform"
	"rmmap/internal/simtime"
	"rmmap/internal/workloads"
)

// Workflow-level experiments: Fig 3, 5, 12, 13, 14, 16a.

// WorkflowBuilder names one evaluated workflow and builds fresh instances
// of it (a workflow is single-use; each run needs its own).
type WorkflowBuilder struct {
	Name  string
	Build func() *platform.Workflow
}

// Workflows returns the four evaluated workflows (§5.1) at the given
// scale — the registry rmmap trace and the fig14 grid both draw from.
func Workflows(scale float64) []WorkflowBuilder {
	finra := workloads.DefaultFINRA()
	finra.Rows = scaleInt(finra.Rows, scale)
	finra.Rules = scaleInt(finra.Rules, scale*0.25+0.75) // keep fan-out meaningful
	if finra.Rules < 8 {
		finra.Rules = 8
	}
	mlt := workloads.DefaultMLTrain()
	mlt.Images = scaleInt(mlt.Images, scale)
	mlp := workloads.DefaultMLPredict()
	mlp.Images = scaleInt(mlp.Images, scale)
	wc := workloads.DefaultWordCount()
	wc.BookBytes = scaleInt(wc.BookBytes, scale)
	return []WorkflowBuilder{
		{"FINRA", func() *platform.Workflow { return workloads.FINRA(finra) }},
		{"ML-training", func() *platform.Workflow { return workloads.MLTrain(mlt) }},
		{"ML-prediction", func() *platform.Workflow { return workloads.MLPredict(mlp) }},
		{"WordCount", func() *platform.Workflow { return workloads.WordCount(wc) }},
	}
}

func benchCluster() platform.ClusterConfig { return platform.ClusterConfig{Machines: 10, Pods: 80} }

func runOne(wf *platform.Workflow, mode platform.Mode, opts platform.Options) (platform.RunResult, error) {
	e, err := platform.NewEngine(wf, mode, opts, benchCluster())
	if err != nil {
		return platform.RunResult{}, err
	}
	return e.Run()
}

func init() {
	register(Experiment{
		ID:    "fig3",
		Title: "Fig 3: state-transfer share of end-to-end time (messaging & storage)",
		Expect: "state transfer takes 42-98% (messaging) and 17-97% (storage) " +
			"of workflow execution",
		Run: runFig3,
	})
	register(Experiment{
		ID:    "fig5",
		Title: "Fig 5: (de)serialization share with zero-cost messaging/storage",
		Expect: "even with free transport, (de)serialization takes 17-58% " +
			"(messaging) / 22-72% (storage) of execution",
		Run: runFig5,
	})
	register(Experiment{
		ID:     "fig14",
		Title:  "Fig 14: end-to-end workflow latency across approaches",
		Expect: "rmmap reduces execution time by 14-97.8%; 1.4-2.6x vs the fastest baseline on real workflows",
		Run:    runFig14,
	})
	register(Experiment{
		ID:     "fig13a",
		Title:  "Fig 13a: ML-training epoch sensitivity",
		Expect: "rmmap's improvement over storage(rdma) shrinks as epochs grow (compute amortizes transfer)",
		Run:    runFig13a,
	})
	register(Experiment{
		ID:     "fig13b",
		Title:  "Fig 13b: ML-training transferred-tensor-size sensitivity",
		Expect: "improvement neither monotonically grows nor shrinks with payload (compute grows too)",
		Run:    runFig13b,
	})
	register(Experiment{
		ID:     "fig13c",
		Title:  "Fig 13c: ML-training width (parallel trainers) sensitivity",
		Expect: "rmmap wins at every width",
		Run:    runFig13c,
	})
	register(Experiment{
		ID:     "fig13d",
		Title:  "Fig 13d: WordCount in Java (CDS-shared type metadata)",
		Expect: "same ordering as Python: rmmap fastest, then storage(rdma), storage, messaging",
		Run:    runFig13d,
	})
	register(Experiment{
		ID:    "fig12",
		Title: "Fig 12: ML-prediction throughput, pod usage and latency CDF",
		Expect: "1.2-1.6x higher saturated throughput; at a fixed rate rmmap " +
			"meets it with ~64-86% of the pods; far lower tail latency",
		Run: runFig12,
	})
	register(Experiment{
		ID:     "fig16a",
		Title:  "Fig 16a: peak memory consumption (list(int) transfer)",
		Expect: "rmmap uses at most a few % more than optimal and less than messaging/storage (no message buffers)",
		Run:    runFig16a,
	})
}

func runFig3(scale float64) (Result, error) {
	t := &Table{Header: []string{"workflow", "approach", "E2E-work", "transfer", "func", "platform", "transfer-ratio"}}
	for _, wfb := range Workflows(scale) {
		for _, mode := range []platform.Mode{platform.ModeMessaging, platform.ModeStoragePocket} {
			res, err := runOne(wfb.Build(), mode, benchOptions())
			if err != nil {
				return nil, fmt.Errorf("%s/%v: %w", wfb.Name, mode, err)
			}
			m := res.Meter
			t.add(wfb.Name, mode.String(), m.Total(), m.TransferTotal(),
				m.Get(simtime.CatCompute), m.Get(simtime.CatPlatform),
				pct(float64(m.TransferTotal()), float64(m.Total())))
		}
	}
	return Result{t}, nil
}

func runFig5(scale float64) (Result, error) {
	t := &Table{Header: []string{"workflow", "approach", "E2E-work", "ser+des", "ser+des-ratio"}}
	for _, wfb := range Workflows(scale) {
		for _, mode := range []platform.Mode{platform.ModeMessaging, platform.ModeStoragePocket} {
			res, err := runOne(wfb.Build(), mode, platform.Options{ZeroNetwork: true})
			if err != nil {
				return nil, fmt.Errorf("%s/%v: %w", wfb.Name, mode, err)
			}
			m := res.Meter
			t.add(wfb.Name, mode.String(), m.Total(), m.SerTotal(),
				pct(float64(m.SerTotal()), float64(m.Total())))
		}
	}
	return Result{t}, nil
}

// runFig14 runs every evaluated workflow under every transfer mode, each
// cell on a fresh Topology cluster, and reports latency next to the
// fabric and remote-page-cache counters behind it.
func runFig14(scale float64) (Result, error) {
	t := &Table{Header: []string{"workflow", "approach", "latency", "vs best baseline",
		"reads", "batches", "batch-pages", "bytes-read", "hits", "misses", "hit-rate", "ra-pages"}}
	for _, wfb := range Workflows(scale) {
		lat := map[platform.Mode]simtime.Duration{}
		counters := map[platform.Mode][]any{}
		for _, mode := range platform.AllModes() {
			l, c, err := fig14Cell(wfb.Build(), mode)
			if err != nil {
				return nil, fmt.Errorf("%s/%v: %w", wfb.Name, mode, err)
			}
			lat[mode], counters[mode] = l, c
		}
		best := lat[platform.ModeMessaging]
		for _, m := range []platform.Mode{platform.ModeStoragePocket, platform.ModeStorageDrTM} {
			if lat[m] < best {
				best = lat[m]
			}
		}
		for _, mode := range platform.AllModes() {
			t.add(append([]any{wfb.Name, mode.String(), lat[mode],
				speedup(float64(best), float64(lat[mode]))}, counters[mode]...)...)
		}
	}
	return Result{t}, nil
}

// fig14Cell runs one cell of the Fig 14 grid on a fresh Topology cluster
// and returns its latency and fig14Counters.
func fig14Cell(wf *platform.Workflow, mode platform.Mode) (simtime.Duration, []any, error) {
	cfg := benchCluster()
	cl, err := topoCluster(cfg.Machines)
	if err != nil {
		return 0, nil, err
	}
	defer cl.Close()
	e, err := platform.NewEngineOn(cl, wf, mode, benchOptions(), cfg.Pods)
	if err != nil {
		return 0, nil, err
	}
	res, err := e.Run()
	if err != nil {
		return 0, nil, err
	}
	return res.Latency, fig14Counters(cl, res), nil
}

// fig14Counters are the cells fig14 prints after a cell's latency: the
// fabric's one-sided reads, doorbell batches, batch pages and bytes read,
// then the remote page cache's hits, misses, hit rate and readahead pages.
func fig14Counters(cl *platform.Cluster, res platform.RunResult) []any {
	reads, batches, _, bytesRead := cl.Fabric.Stats()
	return []any{reads, batches, cl.Fabric.BatchPages(), bytesRead,
		res.Cache.Hits, res.Cache.Misses, pct(res.Cache.HitRate(), 1), res.Cache.ReadaheadPages}
}

// mlTrainSweep runs ML training under storage(rdma) and rmmap(prefetch)
// once per config, one row each: the swept value, both latencies and
// rmmap's improvement.
func mlTrainSweep(col string, values []int, config func(int) workloads.MLTrainConfig) (Result, error) {
	t := &Table{Header: []string{col, "storage(rdma)", "rmmap(prefetch)", "improvement"}}
	for _, v := range values {
		cfg := config(v)
		stor, err := runOne(workloads.MLTrain(cfg), platform.ModeStorageDrTM, benchOptions())
		if err != nil {
			return nil, err
		}
		rm, err := runOne(workloads.MLTrain(cfg), platform.ModeRMMAPPrefetch, benchOptions())
		if err != nil {
			return nil, err
		}
		t.add(v, stor.Latency, rm.Latency,
			pct(float64(stor.Latency-rm.Latency), float64(stor.Latency)))
	}
	return Result{t}, nil
}

func runFig13a(scale float64) (Result, error) {
	return mlTrainSweep("epochs", []int{5, 10, 20, 30}, func(epochs int) workloads.MLTrainConfig {
		cfg := workloads.DefaultMLTrain()
		cfg.Images = scaleInt(cfg.Images, scale)
		cfg.Epochs = epochs
		return cfg
	})
}

func runFig13b(scale float64) (Result, error) {
	var images []int
	for _, n := range []int{500, 1000, 2000, 4000} {
		images = append(images, scaleInt(n, scale))
	}
	return mlTrainSweep("images", images, func(n int) workloads.MLTrainConfig {
		cfg := workloads.DefaultMLTrain()
		cfg.Images = n
		return cfg
	})
}

func runFig13c(scale float64) (Result, error) {
	return mlTrainSweep("trainers", []int{2, 4, 8, 16}, func(width int) workloads.MLTrainConfig {
		cfg := workloads.DefaultMLTrain()
		cfg.Images = scaleInt(cfg.Images, scale)
		cfg.Trainers = width
		return cfg
	})
}

func runFig13d(scale float64) (Result, error) {
	cfg := workloads.DefaultWordCount()
	cfg.BookBytes = scaleInt(cfg.BookBytes, scale)
	cfg.Lang = objrt.LangJava
	t := &Table{Header: []string{"approach", "latency (Java WordCount)", "rmmap advantage"}}
	var rm simtime.Duration
	results := map[platform.Mode]simtime.Duration{}
	for _, mode := range platform.AllModes() {
		res, err := runOne(workloads.WordCount(cfg), mode, benchOptions())
		if err != nil {
			return nil, err
		}
		results[mode] = res.Latency
		if mode == platform.ModeRMMAPPrefetch {
			rm = res.Latency
		}
	}
	for _, mode := range platform.AllModes() {
		t.add(mode.String(), results[mode], pct(float64(results[mode]-rm), float64(results[mode])))
	}
	return Result{t}, nil
}

func runFig12(scale float64) (Result, error) {
	// Fig 12 runs many requests per approach; it uses a throughput-sized
	// serving configuration (smaller batch, 16-tree model) so the suite
	// stays tractable — relative numbers are what the figure shows.
	cfg := workloads.DefaultMLPredict()
	cfg.Images = scaleInt(300, scale)
	cfg.Trees = 16

	// The load itself also scales, so tiny smoke runs stay tractable.
	clients := 8
	closedHorizon := 1 * simtime.Second
	openDur := 2 * simtime.Second
	if scale < 0.1 {
		clients = 4
		closedHorizon = 300 * simtime.Millisecond
		openDur = 500 * simtime.Millisecond
	}

	// Upper row: saturated throughput (closed loop, many clients).
	t := &Table{Header: []string{"approach", "peak tput (req/s)", "p50", "p90", "p99", "avg busy pods"}}
	peak := map[platform.Mode]float64{}
	for _, mode := range platform.AllModes() {
		e, err := platform.NewEngine(workloads.MLPredict(cfg), mode, benchOptions(), benchCluster())
		if err != nil {
			return nil, err
		}
		res := load.ClosedLoop(e, clients, closedHorizon)
		if errs := res.Failed + res.Shed; errs > 0 {
			return nil, fmt.Errorf("fig12 %v: %d errors", mode, errs)
		}
		peak[mode] = res.Throughput()
		t.add(mode.String(), fmt.Sprintf("%.1f", res.Throughput()),
			res.Percentile(0.5), res.Percentile(0.9), res.Percentile(0.99),
			fmt.Sprintf("%.1f/%d", res.AvgBusyPods(), benchCluster().Pods))
	}

	// Lower row: a fixed request rate all approaches can sustain; compare
	// the pods each needs.
	rate := peak[platform.ModeMessaging] * 0.7
	if rate < 1 {
		rate = 1
	}
	t2 := &Table{Header: []string{"approach", fmt.Sprintf("tput @ %.1f req/s", rate), "activated pods", "avg busy", "p99"}}
	for _, mode := range platform.AllModes() {
		e, err := platform.NewEngine(workloads.MLPredict(cfg), mode, benchOptions(), benchCluster())
		if err != nil {
			return nil, err
		}
		res := load.Replay(e, load.Periodic(rate, openDur), openDur)
		if errs := res.Failed + res.Shed; errs > 0 {
			return nil, fmt.Errorf("fig12 open %v: %d errors", mode, errs)
		}
		t2.add(mode.String(), fmt.Sprintf("%.1f", res.Throughput()),
			fmt.Sprintf("%d/%d", e.ActivatedPods(), benchCluster().Pods),
			fmt.Sprintf("%.1f", res.AvgBusyPods()), res.Percentile(0.99))
	}
	return Result{t, t2}, nil
}

func runFig16a(scale float64) (Result, error) {
	// One producer, one consumer, a list(int) payload; measure cluster
	// peak memory. "optimal" generates and reads the list inside one
	// function — no transfer at all.
	t := &Table{Header: []string{"entries", "approach", "peak memory", "vs optimal"}}
	for _, n := range []int{10000, 50000, 200000} {
		n = scaleInt(n, scale)
		var optimal int
		type cs struct {
			name string
			run  func() (int, error)
		}
		cases := []cs{{"optimal (no transfer)", func() (int, error) {
			wf := listLocalWorkflow(n)
			e, err := platform.NewEngine(wf, platform.ModeMessaging, benchOptions(), platform.ClusterConfig{Machines: 2, Pods: 2})
			if err != nil {
				return 0, err
			}
			if _, err := e.Run(); err != nil {
				return 0, err
			}
			return e.Cluster.PeakBytes(), nil
		}}}
		for _, mode := range platform.AllModes() {
			mode := mode
			cases = append(cases, cs{mode.String(), func() (int, error) {
				wf := listTransferWorkflow(n)
				e, err := platform.NewEngine(wf, mode, benchOptions(), platform.ClusterConfig{Machines: 2, Pods: 2})
				if err != nil {
					return 0, err
				}
				if _, err := e.Run(); err != nil {
					return 0, err
				}
				return e.Cluster.PeakBytes(), nil
			}})
		}
		for i, c := range cases {
			peak, err := c.run()
			if err != nil {
				return nil, fmt.Errorf("fig16a %s: %w", c.name, err)
			}
			if i == 0 {
				optimal = peak
			}
			t.add(n, c.name, fmt.Sprintf("%.2f MB", float64(peak)/(1<<20)),
				fmt.Sprintf("%+.1f%%", 100*(float64(peak)-float64(optimal))/float64(optimal)))
		}
	}
	return Result{t}, nil
}

// listTransferWorkflow: produce a list(int) → consume. The consumer reads
// a strided sample of the list (realistic consumers rarely touch every
// byte); under rmmap, demand paging then materializes only the touched
// pages, while (de)serialization must always reconstruct everything —
// the asymmetry behind Fig 16a.
func listTransferWorkflow(n int) *platform.Workflow {
	return &platform.Workflow{
		Name: "list-transfer",
		Functions: []*platform.FunctionSpec{
			{Name: "produce", Instances: 1, Handler: func(ctx *platform.Ctx) (objrt.Obj, error) {
				return ctx.RT.NewIntList(make([]int64, n))
			}},
			{Name: "consume", Instances: 1, Handler: func(ctx *platform.Ctx) (objrt.Obj, error) {
				cnt, err := ctx.Inputs[0].Len()
				if err != nil {
					return objrt.Obj{}, err
				}
				stride := cnt / 64
				if stride == 0 {
					stride = 1
				}
				read := 0
				for i := 0; i < cnt; i += stride {
					e, err := ctx.Inputs[0].Index(i)
					if err != nil {
						return objrt.Obj{}, err
					}
					if _, err := e.Int(); err != nil {
						return objrt.Obj{}, err
					}
					read++
				}
				ctx.Report(read)
				return objrt.Obj{}, nil
			}},
		},
		Edges: []platform.Edge{{From: "produce", To: "consume"}},
	}
}

// listLocalWorkflow: the optimal case — generate and read locally.
func listLocalWorkflow(n int) *platform.Workflow {
	return &platform.Workflow{
		Name: "list-local",
		Functions: []*platform.FunctionSpec{
			{Name: "all", Instances: 1, Handler: func(ctx *platform.Ctx) (objrt.Obj, error) {
				lst, err := ctx.RT.NewIntList(make([]int64, n))
				if err != nil {
					return objrt.Obj{}, err
				}
				cnt, err := lst.Len()
				if err != nil {
					return objrt.Obj{}, err
				}
				ctx.Report(cnt)
				return objrt.Obj{}, nil
			}},
		},
	}
}
