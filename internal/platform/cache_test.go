package platform

import (
	"testing"

	"rmmap/internal/faults"
	"rmmap/internal/memsim"
	"rmmap/internal/objrt"
	"rmmap/internal/simtime"
)

// cacheFanWorkflow pins the producer to machine 0 and width consumers to
// machine 1: the worst case for fabric traffic without a machine-level
// cache (every consumer refetches the whole state) and the best case with
// one (one fetch, width−1 CoW installs).
func cacheFanWorkflow(width, elems int) *Workflow {
	return &Workflow{
		Name: "cache-fan",
		Functions: []*FunctionSpec{
			{Name: "produce", Instances: 1, PinMachine: Pin(0), Handler: func(ctx *Ctx) (objrt.Obj, error) {
				vals := make([]int64, elems)
				for i := range vals {
					vals[i] = int64(i + 1)
				}
				return ctx.RT.NewIntList(vals)
			}},
			{Name: "consume", Instances: width, PinMachine: Pin(1), Handler: func(ctx *Ctx) (objrt.Obj, error) {
				in := ctx.Inputs[0]
				cnt, err := in.Len()
				if err != nil {
					return objrt.Obj{}, err
				}
				sum := int64(0)
				for i := 0; i < cnt; i++ {
					e, err := in.Index(i)
					if err != nil {
						return objrt.Obj{}, err
					}
					v, err := e.Int()
					if err != nil {
						return objrt.Obj{}, err
					}
					sum += v
				}
				return ctx.RT.NewIntList([]int64{sum})
			}},
			{Name: "sink", Instances: 1, Handler: func(ctx *Ctx) (objrt.Obj, error) {
				total := int64(0)
				for _, in := range ctx.Inputs {
					e, err := in.Index(0)
					if err != nil {
						return objrt.Obj{}, err
					}
					v, err := e.Int()
					if err != nil {
						return objrt.Obj{}, err
					}
					total += v
				}
				ctx.Report(total)
				return objrt.Obj{}, nil
			}},
		},
		Edges: []Edge{{"produce", "consume"}, {"consume", "sink"}},
	}
}

// runCacheFan runs the pinned fan-out on a fresh 2-machine cluster and
// also returns the fabric page count and the cluster (for cache probes).
func runCacheFan(t *testing.T, width, elems int, mode Mode, opts Options) (RunResult, int, *Cluster) {
	t.Helper()
	return runCacheFanOn(t, NewCluster(2, simtime.DefaultCostModel()), width, elems, mode, opts)
}

// runCacheFanOn is runCacheFan on a caller-tuned two-machine cluster.
func runCacheFanOn(t *testing.T, cl *Cluster, width, elems int, mode Mode, opts Options) (RunResult, int, *Cluster) {
	t.Helper()
	e, err := NewEngineOn(cl, cacheFanWorkflow(width, elems), mode, opts, 4+2*width)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, bytesRead := cl.Fabric.Stats()
	if bytesRead%memsim.PageSize != 0 {
		t.Fatalf("fabric moved a partial page: %d bytes", bytesRead)
	}
	return res, int(bytesRead / memsim.PageSize), cl
}

// TestFanOutCacheCutsFabricTraffic is the ISSUE acceptance bar: on a
// 1→8 same-machine fan-out the cache+readahead defaults cut fabric
// one-sided reads ≥ 4× and improve latency, with identical output.
func TestFanOutCacheCutsFabricTraffic(t *testing.T) {
	const width, elems = 8, 8192
	base, basePages, _ := runCacheFan(t, width, elems, ModeRMMAP,
		Options{NoPageCache: true, NoReadahead: true})
	opt, optPages, _ := runCacheFan(t, width, elems, ModeRMMAP, Options{})

	if base.Output != opt.Output {
		t.Fatalf("cache changed the answer: %v vs %v", base.Output, opt.Output)
	}
	want := int64(width) * int64(elems) * int64(elems+1) / 2
	if got, ok := opt.Output.(int64); !ok || got != want {
		t.Fatalf("output = %v, want %d", opt.Output, want)
	}
	if optPages == 0 || basePages < 4*optPages {
		t.Errorf("fabric pages: baseline %d vs cached %d, want ≥ 4× reduction", basePages, optPages)
	}
	if opt.Latency >= base.Latency {
		t.Errorf("latency did not improve: cached %v vs baseline %v", opt.Latency, base.Latency)
	}
	if opt.Cache.Hits == 0 {
		t.Error("cached run recorded no hits in RunResult.Cache")
	}
	if opt.Cache.HitRate() <= 0 {
		t.Errorf("hit rate = %v, want > 0", opt.Cache.HitRate())
	}
	if base.Cache.Hits != 0 || base.Cache.Inserts != 0 {
		t.Errorf("NoPageCache run still touched the cache: %+v", base.Cache)
	}
}

// TestCacheOptionsNeverChangeResults: the cache and readahead are pure
// optimizations — every (mode × knob) combination computes the same answer.
func TestCacheOptionsNeverChangeResults(t *testing.T) {
	grid := []struct {
		opts      Options
		readahead int // kernel readahead cap; 0 keeps the cluster default
	}{
		{},
		{opts: Options{NoReadahead: true}},
		{opts: Options{NoPageCache: true}},
		{opts: Options{NoPageCache: true, NoReadahead: true}},
		{opts: Options{PageCacheBytes: 2 * memsim.PageSize}, readahead: 4},
	}
	for _, mode := range AllModes() {
		var want any
		for i, g := range grid {
			cl := NewCluster(2, simtime.DefaultCostModel())
			if g.readahead > 0 {
				for _, k := range cl.Kernels {
					k.SetReadahead(g.readahead)
				}
			}
			res, _, _ := runCacheFanOn(t, cl, 4, 2048, mode, g.opts)
			if i == 0 {
				want = res.Output
				continue
			}
			if res.Output != want {
				t.Errorf("%v with %+v: output %v, want %v", mode, g, res.Output, want)
			}
		}
	}
}

// TestCacheDrainedByDeregisterBroadcast: when the run completes, every
// producer registration has been deregistered and the broadcast has
// emptied all machine caches — no frame outlives the state it mirrors.
func TestCacheDrainedByDeregisterBroadcast(t *testing.T) {
	_, _, cl := runCacheFan(t, 8, 4096, ModeRMMAP, Options{})
	if cl.CacheStats().Inserts == 0 {
		t.Fatal("run never populated the cache")
	}
	for i, k := range cl.Kernels {
		if n := k.PageCache().Len(); n != 0 {
			t.Errorf("machine %d cache holds %d stale pages after run", i, n)
		}
	}
}

// TestCrashInvalidatesCache: a producer-machine crash on a chaos cluster
// drops every cached page sourced from it, cluster-wide.
func TestCrashInvalidatesCache(t *testing.T) {
	plan := faults.Plan{Seed: 1, Crashes: []faults.Crash{{Machine: 0, At: 1000}}}
	cl := NewChaosCluster(2, simtime.DefaultCostModel(), plan, faults.DefaultRetryPolicy())

	const start, end = uint64(0x100000), uint64(0x104000)
	prod := memsim.NewAddressSpace(cl.Machines[0], cl.CM)
	prod.SetMeter(simtime.NewMeter())
	if err := cl.Kernels[0].SetSegment(prod, memsim.SegHeap, start, end); err != nil {
		t.Fatal(err)
	}
	if err := prod.Write(start, []byte("doomed-producer!")); err != nil {
		t.Fatal(err)
	}
	meta, err := cl.Kernels[0].RegisterMem(prod, 7, 42, start, end)
	if err != nil {
		t.Fatal(err)
	}
	cons := memsim.NewAddressSpace(cl.Machines[1], cl.CM)
	cons.SetMeter(simtime.NewMeter())
	if _, err := cl.Kernels[1].Rmap(cons, meta.Machine, meta.ID, meta.Key, meta.Start, meta.End); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	for a := start; a < end; a += memsim.PageSize {
		if err := cons.Read(a, buf); err != nil {
			t.Fatal(err)
		}
	}
	pc := cl.Kernels[1].PageCache()
	if pc.MachineBytes(0) == 0 {
		t.Fatal("consumer faults did not populate the cache")
	}
	cl.Sim.Run() // fires the machine-0 crash at t=1000
	if got := pc.MachineBytes(0); got != 0 {
		t.Errorf("crash left %d cached bytes sourced from the dead machine", got)
	}
	// The consumer's already-installed pages survive: rmap made them real
	// local frames, not views of the dead machine.
	if err := cons.Read(start, buf); err != nil {
		t.Errorf("installed page lost after producer crash: %v", err)
	}
	if string(buf) != "doomed-producer!" {
		t.Errorf("installed page corrupted: %q", buf)
	}
}

// TestTraceCarriesCacheDeltasAndPins: spans expose per-invocation cache
// activity, and PinMachine actually placed the functions.
func TestTraceCarriesCacheDeltasAndPins(t *testing.T) {
	res, _, _ := runCacheFan(t, 4, 2048, ModeRMMAP, Options{Trace: true})
	var hits, ra int64
	for _, s := range res.Trace {
		switch s.Node {
		case "produce":
			if s.Machine != 0 {
				t.Errorf("produce ran on machine %d, want pinned 0", s.Machine)
			}
		case "consume":
			if s.Machine != 1 {
				t.Errorf("consume ran on machine %d, want pinned 1", s.Machine)
			}
		}
		hits += s.CacheHits
		ra += s.ReadaheadPages
	}
	if hits == 0 {
		t.Error("no span carried cache hits")
	}
	if ra == 0 {
		t.Error("no span carried readahead pages")
	}
	if res.Cache.Hits < hits {
		t.Errorf("RunResult.Cache.Hits=%d < sum of span hits %d", res.Cache.Hits, hits)
	}
}
