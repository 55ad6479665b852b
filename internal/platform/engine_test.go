package platform

import (
	"fmt"
	"strings"
	"testing"

	"rmmap/internal/objrt"
	"rmmap/internal/simtime"
)

// pipelineWorkflow builds produce(list of n ints) → transform(sum, emit
// one-element list) → sink(report sum). It exercises every transfer mode
// end to end with a verifiable result.
func pipelineWorkflow(n int) *Workflow {
	return &Workflow{
		Name: "pipeline",
		Functions: []*FunctionSpec{
			{Name: "produce", Instances: 1, Handler: func(ctx *Ctx) (objrt.Obj, error) {
				vals := make([]int64, n)
				for i := range vals {
					vals[i] = int64(i + 1)
				}
				ctx.ChargeCompute(8 * n)
				return ctx.RT.NewIntList(vals)
			}},
			{Name: "transform", Instances: 1, Handler: func(ctx *Ctx) (objrt.Obj, error) {
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
				ctx.ChargeCompute(8 * cnt)
				return ctx.RT.NewIntList([]int64{sum})
			}},
			{Name: "sink", Instances: 1, Handler: func(ctx *Ctx) (objrt.Obj, error) {
				e, err := ctx.Inputs[0].Index(0)
				if err != nil {
					return objrt.Obj{}, err
				}
				v, err := e.Int()
				if err != nil {
					return objrt.Obj{}, err
				}
				ctx.Report(v)
				return objrt.Obj{}, nil
			}},
		},
		Edges: []Edge{{"produce", "transform"}, {"transform", "sink"}},
	}
}

func smallCluster() ClusterConfig { return ClusterConfig{Machines: 3, Pods: 6} }

func runPipeline(t *testing.T, mode Mode, opts Options) RunResult {
	t.Helper()
	e, err := NewEngine(pipelineWorkflow(1000), mode, opts, smallCluster())
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestPipelineAllModesCorrect(t *testing.T) {
	const want = int64(1000 * 1001 / 2)
	for _, mode := range AllModes() {
		t.Run(mode.String(), func(t *testing.T) {
			res := runPipeline(t, mode, Options{})
			got, ok := res.Output.(int64)
			if !ok || got != want {
				t.Errorf("output = %v, want %d", res.Output, want)
			}
			if res.Latency <= 0 {
				t.Error("non-positive latency")
			}
		})
	}
}

func TestRMMAPSkipsSerDes(t *testing.T) {
	res := runPipeline(t, ModeRMMAP, Options{})
	// The bulk edge (produce → transform, a 1000-int list) goes through
	// rmap: the transform function never deserializes. (The tiny
	// transform → sink result legitimately falls back to messaging.)
	if got := res.PerFunction["transform"].Get(simtime.CatDeserialize); got != 0 {
		t.Errorf("rmmap deserialized the bulk edge: %v", got)
	}
	if got := res.PerFunction["produce"].Get(simtime.CatSerialize); got != 0 {
		t.Errorf("rmmap serialized the bulk edge: %v", got)
	}
	if res.Meter.Get(simtime.CatMap) == 0 || res.Meter.Get(simtime.CatFault) == 0 {
		t.Errorf("rmmap missing map/fault charges: %v", res.Meter)
	}
}

func TestMessagingPaysSerDes(t *testing.T) {
	res := runPipeline(t, ModeMessaging, Options{})
	if res.Meter.Get(simtime.CatSerialize) == 0 || res.Meter.Get(simtime.CatDeserialize) == 0 {
		t.Errorf("messaging missing ser/des: %v", res.Meter)
	}
	if res.Meter.Get(simtime.CatNetwork) == 0 {
		t.Errorf("messaging free: %v", res.Meter)
	}
}

func TestStoragePaysStoreCosts(t *testing.T) {
	res := runPipeline(t, ModeStorageDrTM, Options{})
	if res.Meter.Get(simtime.CatStorage) == 0 {
		t.Errorf("storage mode without storage charges: %v", res.Meter)
	}
}

// ndarrayPipeline transfers a page-dense state (where prefetch shines).
func ndarrayPipeline(n int) *Workflow {
	return &Workflow{
		Name: "nd-pipeline",
		Functions: []*FunctionSpec{
			{Name: "produce", Instances: 1, Handler: func(ctx *Ctx) (objrt.Obj, error) {
				return ctx.RT.NewNDArray([]int{n}, make([]float64, n))
			}},
			{Name: "sink", Instances: 1, Handler: func(ctx *Ctx) (objrt.Obj, error) {
				data, err := ctx.Inputs[0].Data()
				if err != nil {
					return objrt.Obj{}, err
				}
				ctx.Report(len(data))
				return objrt.Obj{}, nil
			}},
		},
		Edges: []Edge{{"produce", "sink"}},
	}
}

func TestModeOrdering(t *testing.T) {
	// The paper's headline ordering on a page-dense payload:
	// rmmap(prefetch) < rmmap < storage(rdma) < messaging/pocket.
	lat := map[Mode]simtime.Duration{}
	for _, mode := range AllModes() {
		e, err := NewEngine(ndarrayPipeline(200000), mode, Options{}, smallCluster())
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Output.(int) != 200000 {
			t.Fatalf("%v: wrong result %v", mode, res.Output)
		}
		lat[mode] = res.Latency
	}
	if lat[ModeRMMAPPrefetch] >= lat[ModeRMMAP] {
		t.Errorf("prefetch (%v) not faster than demand paging (%v)",
			lat[ModeRMMAPPrefetch], lat[ModeRMMAP])
	}
	if lat[ModeRMMAP] >= lat[ModeStorageDrTM] {
		t.Errorf("rmmap (%v) not faster than storage(rdma) (%v)",
			lat[ModeRMMAP], lat[ModeStorageDrTM])
	}
	if lat[ModeStorageDrTM] >= lat[ModeStoragePocket] {
		t.Errorf("drtm (%v) not faster than pocket (%v)", lat[ModeStorageDrTM], lat[ModeStoragePocket])
	}
	if lat[ModeStorageDrTM] >= lat[ModeMessaging] {
		t.Errorf("drtm (%v) not faster than messaging (%v)", lat[ModeStorageDrTM], lat[ModeMessaging])
	}
}

func TestFanOutFanIn(t *testing.T) {
	// source(1) → worker(8, each adds Instance) → merge(1, sums).
	wf := &Workflow{
		Name: "fan",
		Functions: []*FunctionSpec{
			{Name: "src", Instances: 1, Handler: func(ctx *Ctx) (objrt.Obj, error) {
				return ctx.RT.NewIntList([]int64{100})
			}},
			{Name: "worker", Instances: 8, Handler: func(ctx *Ctx) (objrt.Obj, error) {
				e, err := ctx.Inputs[0].Index(0)
				if err != nil {
					return objrt.Obj{}, err
				}
				base, err := e.Int()
				if err != nil {
					return objrt.Obj{}, err
				}
				return ctx.RT.NewIntList([]int64{base + int64(ctx.Instance)})
			}},
			{Name: "merge", Instances: 1, Handler: func(ctx *Ctx) (objrt.Obj, error) {
				if len(ctx.Inputs) != 8 {
					return objrt.Obj{}, fmt.Errorf("merge got %d inputs", len(ctx.Inputs))
				}
				sum := int64(0)
				for _, in := range ctx.Inputs {
					e, err := in.Index(0)
					if err != nil {
						return objrt.Obj{}, err
					}
					v, err := e.Int()
					if err != nil {
						return objrt.Obj{}, err
					}
					sum += v
				}
				ctx.Report(sum)
				return objrt.Obj{}, nil
			}},
		},
		Edges: []Edge{{"src", "worker"}, {"worker", "merge"}},
	}
	for _, mode := range []Mode{ModeMessaging, ModeRMMAPPrefetch} {
		e, err := NewEngine(wf, mode, Options{}, ClusterConfig{Machines: 4, Pods: 12})
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		want := int64(8*100 + 28)
		if got := res.Output.(int64); got != want {
			t.Errorf("%v: merge sum = %d, want %d", mode, got, want)
		}
	}
}

func TestRegistrationsReclaimed(t *testing.T) {
	e, err := NewEngine(pipelineWorkflow(100), ModeRMMAP, Options{}, smallCluster())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.LiveRegistrations() != 0 {
		t.Errorf("coordinator still tracks %d registrations", e.LiveRegistrations())
	}
	for i, k := range e.Cluster.Kernels {
		if k.Registrations() != 0 {
			t.Errorf("kernel %d holds %d registrations after reclamation", i, k.Registrations())
		}
	}
}

func TestSmallStateFallsBackToMessaging(t *testing.T) {
	// A producer emitting a bare int must use messaging even under RMMAP
	// (§6): no register/map charges should appear for that edge.
	wf := &Workflow{
		Name: "small",
		Functions: []*FunctionSpec{
			{Name: "p", Instances: 1, Handler: func(ctx *Ctx) (objrt.Obj, error) {
				return ctx.RT.NewInt(7)
			}},
			{Name: "c", Instances: 1, Handler: func(ctx *Ctx) (objrt.Obj, error) {
				v, err := ctx.Inputs[0].Int()
				if err != nil {
					return objrt.Obj{}, err
				}
				ctx.Report(v)
				return objrt.Obj{}, nil
			}},
		},
		Edges: []Edge{{"p", "c"}},
	}
	e, err := NewEngine(wf, ModeRMMAPPrefetch, Options{}, smallCluster())
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Output.(int64) != 7 {
		t.Errorf("output = %v", res.Output)
	}
	if res.Meter.Get(simtime.CatMap) != 0 {
		t.Errorf("small state still rmapped: %v", res.Meter)
	}
	if res.Meter.Get(simtime.CatSerialize) == 0 {
		t.Errorf("fallback did not serialize: %v", res.Meter)
	}
}

func TestUntrustedConsumerFallsBack(t *testing.T) {
	wf := pipelineWorkflow(500)
	wf.Function("transform").Untrusted = true
	e, err := NewEngine(wf, ModeRMMAP, Options{}, smallCluster())
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	// produce→transform went via messaging; transform→sink still rmap.
	if res.PerFunction["transform"].Get(simtime.CatDeserialize) == 0 {
		t.Error("untrusted edge did not deserialize (no messaging fallback)")
	}
}

func TestCrossLanguageFallsBack(t *testing.T) {
	wf := pipelineWorkflow(500)
	wf.Function("transform").Lang = objrt.LangJava
	e, err := NewEngine(wf, ModeRMMAP, Options{}, smallCluster())
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.PerFunction["transform"].Get(simtime.CatDeserialize) == 0 {
		t.Error("cross-language edge did not fall back to messaging")
	}
}

// degeneratePlan gives every slot the same layout — the negative control
// showing why static planning is required.
func degeneratePlan(wf *Workflow) *Plan {
	p := &Plan{Workflow: wf.Name, slots: make(map[SlotID]Layout)}
	l := layoutFor(Range{PlanBase, PlanBase + DefaultMemBudget})
	for _, f := range wf.Functions {
		for i := 0; i < f.Instances; i++ {
			id := SlotID{f.Name, i}
			p.slots[id] = l
			p.order = append(p.order, id)
		}
	}
	return p
}

func TestDisablePlanBreaksRMMAP(t *testing.T) {
	// The negative control of §4.2: without address planning, rmap hits
	// the consumer's own segments and the request fails.
	wf := pipelineWorkflow(100)
	e, err := NewEngine(wf, ModeRMMAP, Options{}, smallCluster())
	if err != nil {
		t.Fatal(err)
	}
	e.Plan = degeneratePlan(wf)
	_, err = e.Run()
	if err == nil {
		t.Fatal("rmap run succeeded without an address plan")
	}
	if !strings.Contains(err.Error(), "overlap") {
		t.Errorf("err = %v, want VMA overlap", err)
	}
}

func TestDisablePlanFineForMessaging(t *testing.T) {
	wf := pipelineWorkflow(100)
	e, err := NewEngine(wf, ModeMessaging, Options{}, smallCluster())
	if err != nil {
		t.Fatal(err)
	}
	e.Plan = degeneratePlan(wf)
	if _, err := e.Run(); err != nil {
		t.Errorf("messaging needs no plan, got %v", err)
	}
}

func TestColdStartCharged(t *testing.T) {
	warm := runPipeline(t, ModeMessaging, Options{})
	cold := runPipeline(t, ModeMessaging, Options{ColdStart: true})
	if cold.Latency <= warm.Latency {
		t.Errorf("cold (%v) not slower than warm (%v)", cold.Latency, warm.Latency)
	}
	diff := cold.Meter.Get(simtime.CatPlatform) - warm.Meter.Get(simtime.CatPlatform)
	want := simtime.Scale(simtime.DefaultCostModel().ColdStart, 3)
	if diff != want {
		t.Errorf("cold-start charges = %v, want %v", diff, want)
	}
}

func TestContainerReuseAcrossRequests(t *testing.T) {
	e, err := NewEngine(pipelineWorkflow(200), ModeRMMAP, Options{}, smallCluster())
	if err != nil {
		t.Fatal(err)
	}
	var latencies []simtime.Duration
	for i := 0; i < 3; i++ {
		e.Submit(func(r RunResult) {
			if r.Err != nil {
				t.Errorf("request %d: %v", i, r.Err)
			}
			latencies = append(latencies, r.Latency)
		})
		e.Cluster.Sim.Run()
	}
	if len(latencies) != 3 {
		t.Fatalf("completed %d requests", len(latencies))
	}
	if e.LiveRegistrations() != 0 {
		t.Error("registrations leaked across requests")
	}
}

func TestZeroNetworkOption(t *testing.T) {
	normal := runPipeline(t, ModeMessaging, Options{})
	zero := runPipeline(t, ModeMessaging, Options{ZeroNetwork: true})
	if zero.Meter.Get(simtime.CatNetwork) != 0 {
		t.Errorf("zero-network charged %v", zero.Meter.Get(simtime.CatNetwork))
	}
	if zero.Meter.SerTotal() == 0 {
		t.Error("zero-network lost ser/des charges (Fig 5 needs them)")
	}
	if zero.Latency >= normal.Latency {
		t.Error("zeroing network did not reduce latency")
	}
}

func TestEngineIntrospection(t *testing.T) {
	e, err := NewEngine(pipelineWorkflow(10), ModeRMMAP, Options{}, smallCluster())
	if err != nil {
		t.Fatal(err)
	}
	if e.Mode() != ModeRMMAP {
		t.Error("Mode()")
	}
	names := e.SortedFunctionNames()
	if len(names) != 3 || names[0] != "produce" {
		t.Errorf("names = %v", names)
	}
	if e.BusyPods() != 0 || e.ActivatedPods() != 0 || e.QueueLen() != 0 {
		t.Error("fresh engine not idle")
	}
}
